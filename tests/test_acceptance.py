"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines inline.
"""

import math
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

import ivtskit as iv
from ivtskit.dgp import DgpConfig

RHO_GRID = (-0.9, -0.5, 0.0, 0.3, 0.7)


def report(num, ok, detail):
    print(f"[acceptance] criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def random_interval(rng, scale=5.0):
    lo, up = rng.uniform(-scale, scale, size=2)
    return iv.Interval(lo, up)


def test_criterion_01_kernel_identity_suite():
    rng = np.random.default_rng(1001)
    k1, k2 = iv.kernel_preset("K1"), iv.kernel_preset("K2")
    k3, k4 = iv.kernel_preset("K3"), iv.kernel_preset("K4")
    started = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        a, b = random_interval(rng), random_interval(rng)
        dc = a.center() - b.center()
        dr = a.range() - b.range()
        du, dl = a.upper - b.upper, a.lower - b.lower
        gaps = (
            abs(iv.dk_squared(a, b, k1) - dc * dc),
            abs(iv.dk_squared(a, b, k2) - 4 * dr * dr),
            abs(
                iv.dk_squared(a, b, k3)
                - (2 * (0.5 + 0.25) * dr * dr + 2 * (0.5 - 0.25) * dc * dc)
            ),
            abs(iv.dk_squared(a, b, k4) - (du * du + dl * dl)),
        )
        worst = max(worst, *gaps)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 1.0
    assert report(
        1, ok, f"10^4 pairs, worst closed-form gap {worst:.2e}, {elapsed:.2f}s"
    )


def test_criterion_02_quadratic_form_oracle():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(10_000):
        a, b = random_interval(rng), random_interval(rng)
        k = iv.Kernel2x2(*rng.uniform(-2, 2, size=3))
        v = np.array([a.upper - b.upper, -(a.lower - b.lower)])
        oracle = float(v @ k.as_matrix() @ v)
        worst = max(worst, abs(iv.dk_squared(a, b, k) - oracle))
    ok = worst <= 1e-12
    assert report(2, ok, f"10^4 random kernels, worst |quadratic form - oracle| {worst:.2e}")


def test_criterion_03_irp_invariants():
    rng = np.random.default_rng(1003)
    k5 = iv.kernel_preset("K5")
    ok = True
    for _ in range(100):
        t = int(rng.integers(2, 61))
        x = iv.IntervalSeries(rng.uniform(-2, 2, size=(t, 2)))
        m = int(rng.integers(1, 4))
        kappa = int(rng.integers(1, 3))
        if t - (m - 1) * kappa < 1:
            m, kappa = 1, 1
        lo, hi = sorted(rng.uniform(0, 2.5, size=2))
        img_lo = iv.image_series(x, iv.TrajectoryConfig(m=m, kappa=kappa, epsilon=lo), k5).pixels
        img_hi = iv.image_series(x, iv.TrajectoryConfig(m=m, kappa=kappa, epsilon=hi), k5).pixels
        ok &= np.array_equal(img_lo, img_lo.T) and np.array_equal(img_hi, img_hi.T)
        ok &= bool(np.isin(img_lo, (0, 1)).all())
        ok &= np.array_equal(np.diag(img_lo), np.ones(len(img_lo), dtype=np.uint8))
        ok &= bool((img_hi >= img_lo).all())
        # naive double-loop oracle at m=1, kappa=1
        naive = np.zeros((t, t), dtype=np.uint8)
        for j in range(t):
            for kk in range(t):
                naive[j, kk] = 1 if hi - iv.dk_distance(x[j], x[kk], k5) >= 0 else 0
        plain = iv.image_series(x, iv.TrajectoryConfig(epsilon=hi), k5).pixels
        ok &= np.array_equal(plain, naive)
    assert report(3, ok, "100 random series: symmetry, binarity, diagonal, "
                         "epsilon monotonicity, double-loop oracle")


def test_criterion_04_ijrp_is_elementwise_and():
    rng = np.random.default_rng(1004)
    k4 = iv.kernel_preset("K4")
    ok = True
    for _ in range(50):
        d = int(rng.integers(1, 5))
        t = int(rng.integers(3, 30))
        dims = [iv.IntervalSeries(rng.uniform(-2, 2, size=(t, 2))) for _ in range(d)]
        eps = tuple(float(e) for e in rng.uniform(0.2, 2.0, size=d))
        w = iv.MvIntervalSeries(np.stack([s.bounds for s in dims]))
        joint = iv.image_series(w, iv.TrajectoryConfig(epsilon=eps), k4)
        product = np.ones((t, t), dtype=np.uint8)
        for j, s in enumerate(dims):
            product = product * iv.image_series(s, iv.TrajectoryConfig(epsilon=eps[j]), k4).pixels
        ok &= np.array_equal(joint.pixels, product)
    assert report(4, ok, "50 random multivariate series (d <= 4): joint image == "
                         "product of per-dimension images")


def test_criterion_05_dgp_statistics():
    started = time.perf_counter()
    worst_cov = 0.0
    for i, rho in enumerate(RHO_GRID):
        draws = iv.sample_residuals(rho, np.random.default_rng([1005, i]), 100_000)
        gap = np.abs(np.cov(draws.T) - iv.residual_covariance(rho)).max()
        worst_cov = max(worst_cov, float(gap))
    cov_ok = worst_cov <= 0.02

    out3 = iv.gen_dgp3(DgpConfig(rho=0.7, T=100_000), np.random.default_rng(1006))
    centered = out3 - out3.mean(axis=0)
    lag2 = max(
        abs(float(np.mean(centered[2:, c] * centered[:-2, c]))) for c in range(2)
    )
    lag2_ok = lag2 <= 0.02

    out1 = iv.gen_dgp1(
        DgpConfig(rho=0.7, T=100_000, truncation_L=100), np.random.default_rng(1007)
    )
    target = np.array([0.1, 0.3]) / math.sqrt(3.0)
    mean_gap = float(np.abs(out1.mean(axis=0) - target).max())
    mean_ok = mean_gap <= 0.01

    elapsed = time.perf_counter() - started
    ok = cov_ok and lag2_ok and mean_ok and elapsed < 30.0
    assert report(
        5,
        ok,
        f"cov gap {worst_cov:.4f} (<=0.02), lag-2 {lag2:.4f} (<=0.02), "
        f"mean gap {mean_gap:.4f} (<=0.01), {elapsed:.1f}s (<30s)",
    )


# ---------------------------------------------------------------------------
# Desk-scale classification protocol (criteria 6, 7, 12)


def _cli(*args, env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    proc = subprocess.run(
        [sys.executable, "-m", "ivtskit", *map(str, args)],
        capture_output=True,
        text=True,
        env=merged,
    )
    assert proc.returncode == 0, f"CLI failed: {args}\n{proc.stderr}"
    return proc


def _report_accuracy(outdir):
    line = (outdir / "report.csv").read_text().splitlines()[1]
    return float(line.split(",")[4])


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """Generate -> K4 image -> linear classify, and 1-NN classify per kernel.

    Both classifiers run over seeds 0-4 of the ``mix`` scenario, and on each
    seed they share the stratified split drawn from that seed.  ``seconds``
    holds the wall time of each stage criterion 6 scores, summed over seeds.
    """
    root = tmp_path_factory.mktemp("desk")
    datasets = []
    seconds = dict.fromkeys(("generate", "image", "linear", "1-NN"), 0.0)

    def timed(stage, *args):
        started = time.perf_counter()
        _cli(*args)
        seconds[stage] += time.perf_counter() - started

    image_accuracies = []
    for seed in range(5):
        data = root / f"mix_{seed}.csv"
        images = root / f"imgs_{seed}"
        outdir = root / f"lin_{seed}"
        timed(
            "generate", "generate", "--scenario", "mix", "--rho", "0.7",
            "--per-class", "50", "--T", "150", "--seed", seed, "--out", data,
        )
        timed(
            "image", "image", "--data", data, "--outdir", images,
            "--kernel", "K4", "--threads", "1",
        )
        timed(
            "linear", "classify", "--images", images, "--mode", "linear",
            "--seed", seed, "--outdir", outdir,
        )
        image_accuracies.append(_report_accuracy(outdir))
        datasets.append(data)
    accuracies = {}
    for kernel in ("K4", "K1", "K2"):
        values = []
        for seed in range(5):
            outdir = root / f"cls_{kernel}_{seed}"
            started = time.perf_counter()
            _cli(
                "classify", "--data", datasets[seed], "--mode", "knn", "--k", "1",
                "--kernel", kernel, "--train-fraction", "0.8", "--seed", seed,
                "--outdir", outdir, "--tag", "mix3", "--threads", "1",
            )
            if kernel == "K4":
                seconds["1-NN"] += time.perf_counter() - started
            values.append(_report_accuracy(outdir))
        accuracies[kernel] = values
    return SimpleNamespace(
        root=root,
        accuracies=accuracies,
        image_accuracies=image_accuracies,
        seconds=seconds,
    )


def _fmt(values):
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def test_criterion_06_desk_scale_classification(desk_runs):
    # The imaging route must beat chance (three balanced classes) and the
    # point-valued 1-NN baseline on every seed's split.  The 1-NN sits near
    # chance on mix: the summed per-step K4 distance from a query to an item
    # grows with both items' variance, and process 1 has the smallest
    # (tr(K Sigma) 2.50 against 3.75 and 3.63), so most queries are sent to
    # class 1.  A median above 0.60 on mix stays an open target (ROADMAP).
    images = desk_runs.image_accuracies
    knn = desk_runs.accuracies["K4"]
    chance = 1.0 / 3.0
    total = sum(desk_runs.seconds.values())
    stages = ", ".join(f"{k} {v:.1f}s" for k, v in desk_runs.seconds.items())
    ok = all(a > chance and a > b for a, b in zip(images, knn)) and total < 300.0
    assert report(
        6,
        ok,
        f"K4-image linear accuracy {_fmt(images)} (median "
        f"{float(np.median(images)):.3f}) vs 1-NN {_fmt(knn)} (median "
        f"{float(np.median(knn)):.3f}) over seeds 0-4; required on every seed: "
        f"> 1/3 and > 1-NN; stages {total:.0f}s (<300s): {stages}",
    )


def test_criterion_07_kernel_ordering(desk_runs):
    means = {k: float(np.mean(v)) for k, v in desk_runs.accuracies.items()}
    strictly_worse_than_both = (
        means["K4"] < means["K1"] - 0.05 and means["K4"] < means["K2"] - 0.05
    )
    ok = not strictly_worse_than_both
    assert report(
        7,
        ok,
        f"mean accuracies K4={means['K4']:.3f} K1={means['K1']:.3f} "
        f"K2={means['K2']:.3f}; K4 within 0.05 of the best partial kernel",
    )


def test_criterion_08_max_loss_trainer():
    angles = np.linspace(-0.35, 0.35, 10)
    pos = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    X = np.vstack([pos, -pos])
    y = np.array([1] * 10 + [2] * 10)
    clf = iv.train(X, y, kind="hinge", steps=2000, c_A=1.0, c_B=1.0)
    risk = iv.empirical_phi_risk(clf, X, y, "hinge")
    row_norms = float(np.linalg.norm(clf.weights, axis=1).max())
    bias_max = float(np.abs(clf.biases).max())
    caps_ok = row_norms <= 1.0 + 1e-9 and bias_max <= 1.0 + 1e-9
    ok = risk < 0.05 and caps_ok
    assert report(
        8,
        ok,
        f"final hinge risk {risk:.4f} (<0.05) in 2000 steps, "
        f"max row norm {row_norms:.6f}, max |bias| {bias_max:.6f}",
    )


def test_criterion_09_pointwise_surrogate_bound():
    rng = np.random.default_rng(1009)
    ell = iv.lipschitz_constant("hinge")
    bound = 4.0 * ell * (1.0 * 1.0 + 1.0)
    violations = 0
    worst = 0.0
    for _ in range(10_000):
        w1 = rng.standard_normal((3, 4))
        w1 *= (rng.uniform(0, 1, size=3) / np.linalg.norm(w1, axis=1))[:, None]
        w2 = rng.standard_normal((3, 4))
        w2 *= (rng.uniform(0, 1, size=3) / np.linalg.norm(w2, axis=1))[:, None]
        f1 = iv.LinearClassifier(w1, rng.uniform(-1, 1, size=3))
        f2 = iv.LinearClassifier(w2, rng.uniform(-1, 1, size=3))
        z = rng.standard_normal(4)
        z *= rng.uniform(0, 1) / np.linalg.norm(z)
        y = int(rng.integers(1, 4))
        gap = abs(iv.empirical_phi_risk(f1, [z], [y], "hinge")
                  - iv.empirical_phi_risk(f2, [z], [y], "hinge"))
        worst = max(worst, gap)
        violations += gap > bound
    ok = violations == 0
    assert report(
        9, ok, f"10^4 in-cap draws, worst gap {worst:.4f} vs bound {bound}, "
               f"{violations} violations"
    )


def test_criterion_10_bound_calculators():
    value = iv.excess_risk_bound(1.0, 1.0, 1.0, 1.0, 100, 10.0)
    exact_ok = abs(value - 65.76) <= 1e-9
    n_scan = [
        iv.excess_risk_bound(1.0, 1.0, 1.0, 1.0, n, 10.0)
        for n in (1, 3, 10, 100, 10_000, 10**6)
    ]
    n_ok = all(a >= b for a, b in zip(n_scan, n_scan[1:]))
    c_scan = [
        iv.excess_risk_bound(1.0, 1.0, 1.0, 1.0, 100, c)
        for c in (0.0, 0.5, 2.0, 10.0, 50.0)
    ]
    c_ok = all(a <= b for a, b in zip(c_scan, c_scan[1:]))
    ok = exact_ok and n_ok and c_ok
    assert report(
        10, ok, f"excess bound {value!r} (target 65.76 +/- 1e-9), "
                f"monotone in n: {n_ok}, monotone in logN: {c_ok}"
    )


def test_criterion_11_offset_rademacher_estimator():
    rng = np.random.default_rng(1011)
    degenerate = iv.empirical_offset_rademacher(
        rng.standard_normal((6, 3)), 0.0, 0.0, varrho=1.0, mc_draws=64
    )
    zero_ok = degenerate.value == 0.0
    z = np.zeros((1, 3))
    z[0, 0] = 1.0
    scalar = iv.empirical_offset_rademacher(z, 1.0, 0.0, varrho=1.0, mc_draws=256)
    scalar_ok = abs(scalar.value - 0.25) <= 0.05
    ok = zero_ok and scalar_ok
    assert report(
        11, ok, f"degenerate class -> {degenerate.value!r} (exact 0), "
                f"scalar case {scalar.value:.4f} vs 0.25 +/- 0.05"
    )


def test_criterion_12_determinism_across_threads(desk_runs, tmp_path):
    seed = 0
    artifacts = []
    for name, threads in (("a", 1), ("b", 4)):
        base = tmp_path / name
        data = base / "mix.csv"
        _cli(
            "generate", "--scenario", "mix", "--rho", "0.7", "--per-class", "50",
            "--T", "150", "--seed", seed, "--out", data,
        )
        _cli(
            "image", "--data", data, "--outdir", base / "imgs", "--kernel", "K4",
            "--threads", threads, "--stem", "img",
        )
        _cli(
            "classify", "--data", data, "--mode", "knn", "--k", "1",
            "--kernel", "K4", "--train-fraction", "0.8", "--seed", seed,
            "--outdir", base / "cls", "--tag", "mix3", "--threads", threads,
        )
        image_bytes = b"".join(
            (base / "imgs" / p.name).read_bytes()
            for p in sorted((base / "imgs").glob("*.pgm"))
        )
        artifacts.append(
            (
                data.read_bytes(),
                image_bytes,
                (base / "imgs" / "index.csv").read_bytes(),
                (base / "cls" / "report.csv").read_bytes(),
            )
        )
    same = artifacts[0] == artifacts[1]
    reference = _report_accuracy(desk_runs.root / "cls_K4_0")
    rerun = float(artifacts[0][3].decode().splitlines()[1].split(",")[4])
    matches_reference = rerun == reference
    ok = same and matches_reference
    assert report(
        12, ok, "threads 1 vs 4: dataset, images, index, and report bytes identical; "
                f"accuracy matches the criterion-6 run ({rerun!r})"
    )
