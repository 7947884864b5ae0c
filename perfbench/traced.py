"""The traced run: the workload's stages re-run in-process through ivtskit's
public functions, with a span around every call into a module.

Spans are kept in memory and written out when the run ends.  Each span has a
name (`<module>.<operation>`, or `stage.<kind>` for a whole CLI stage), a
start, an end, its parent span and the workload-run id; counts are recorded
at the same boundaries.  The run is single-threaded.  Probes (per-pair
distance timing, the k-NN allocation peak, the CSV re-save after `ingest`)
run after the stages, under `probe.*` spans that the traced wall excludes.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import ivtskit as iv
import workloads as wl
from ivtskit import cli, dgp

# Queries scanned under tracemalloc for the k-NN allocation peak.
ALLOC_QUERIES = 20
# Query/train pairs timed for the per-pair series distance.
PAIR_SAMPLE = 200


class Tracer:
    """In-memory spans and counts of one workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._open[-1] if self._open else None, name,
               time.perf_counter(), None]
        self.spans.append(rec)
        self._open.append(rec[0])
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (spans, total seconds, self seconds).

        The run is single-threaded, so children never overlap and the time
        they cover is the sum of their durations.
        """
        child = defaultdict(float)
        for s in self.spans:
            if s[1] is not None:
                child[s[1]] += s[4] - s[3]
        out: dict[str, list] = {}
        for s in self.spans:
            row = out.setdefault(s[2], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s[4] - s[3]
            row[2] += s[4] - s[3] - child[s[0]]
        return {k: tuple(v) for k, v in out.items()}

    def dump(self) -> dict:
        return {"run_id": self.run_id,
                "spans": [{"run": self.run_id, "id": i, "parent": p, "name": n, "start": a,
                           "end": b} for i, p, n, a, b in self.spans],
                "counts": dict(self.counts)}


class TracedPipeline:
    """Mirror of the CLI stages.  Uses the CLI defaults for every option the
    workload leaves unset, so its outputs must equal the CLI's."""

    def __init__(self, work: Path, raw: Path, tracer: Tracer):
        self.work = work
        self.raw = raw
        self.t = tracer
        self.cfg = iv.TrajectoryConfig(m=1, kappa=1, epsilon=iv.DEFAULT_EPSILON)
        self.results: dict = {}

    # -- helpers, each one span around one module call --------------------
    def _load(self):
        with self.t.span("dgp.load_csv"):
            ds = iv.load_dataset_csv(self.work / wl.DATASET)
        d = ds.dim()
        self.t.counts["dgp.csv_rows"] += len(ds) * d * len(ds.series()[0])
        return ds

    def _save(self, ds, path: Path, span: str = "dgp.save_csv"):
        with self.t.span(span):
            iv.save_dataset_csv(ds, path)
        self.t.counts["dgp.csv_bytes"] += path.stat().st_size

    def _image_all(self, series, kernel):
        images = []
        with self.t.span("imaging.image"):
            for s in series:
                with self.t.span("imaging.image_item"):
                    images.append(iv.image_series(s, self.cfg, kernel))
        d = getattr(series[0], "d", 1)
        for img in images:
            px = img.pixels
            self.t.counts["imaging.images"] += 1
            self.t.counts["imaging.pixels"] += px.size
            self.t.counts["imaging.ones"] += int(px.sum())
            self.t.counts["intervals.pair_forms"] += px.size * d
        return images

    def _featurize(self, images, fc):
        with self.t.span("classify.featurize"):
            X = np.array([iv.featurize(img, fc) for img in images])
        self.t.counts["classify.featurize_calls"] += len(images)
        return X

    # -- stages -------------------------------------------------------------
    def generate(self, o):
        common = dict(per_class_n=int(o["per-class"]), T=int(o["T"]), seed=int(o["seed"]))
        with self.t.span("dgp.generate"):
            if "dgp" in o:
                ds = iv.build_univariate_dataset(int(o["dgp"]), **common)
            elif o.get("scenario") == "c1":
                ds = iv.build_multivariate_c1(**common)
            else:
                raise ValueError(f"traced generate does not mirror {o}")
        self.t.counts["dgp.items"] += len(ds)
        self._save(ds, self.work / wl.DATASET)

    def ingest(self, o):
        argv = ["ingest", "--input", str(self.raw), "--out",
                str(self.work / wl.DATASET), "--window", o["window"]]
        err = io.StringIO()
        with self.t.span("cli.ingest"), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"in-process ingest exited {rc}: {err.getvalue()[-300:]}")
        self.t.counts["cli.ingest_dropped_days"] += sum(
            int(line.split("dropped ")[1].split()[0])
            for line in err.getvalue().splitlines() if "dropped " in line)

    def image(self, o):
        ds = self._load()
        kernel = iv.parse_kernel(o["kernel"])
        images = self._image_all(ds.series(), kernel)
        fmt = o["format"]
        writer = iv.export_pgm if fmt == "pgm" else iv.export_csv
        out = self.work / wl.IMAGES
        out.mkdir(exist_ok=True)
        paths = [out / f"{Path(wl.DATASET).stem}_{i}.{fmt}" for i in range(len(images))]
        with self.t.span("imaging.export"):
            for img, path in zip(images, paths):
                writer(img, path)
        self.t.counts["imaging.export_bytes"] += sum(p.stat().st_size for p in paths)
        self.results["image.paths"] = paths
        self.results["labels"] = ds.labels()

    def classify_linear(self, o):
        fc = iv.FeatureConfig(mode=o["feature-mode"], q=int(o.get("blocks", 10)),
                              normalize_cap=1.0)
        if "images" in o:
            paths = self.results["image.paths"]
            with self.t.span("imaging.load"):
                images = [iv.load_pgm(p) if p.suffix == ".pgm" else iv.load_csv_image(p)
                          for p in paths]
            y = np.array(self.results["labels"])
        else:
            ds = self._load()
            images = self._image_all(ds.series(), iv.parse_kernel(o["kernel"]))
            y = np.array(ds.labels())
        X = self._featurize(images, fc)
        seed, accs, models = int(o["seed"]), [], []
        n_cls = int(y.max())
        for r in range(int(o.get("runs", 1))):
            with self.t.span("dgp.split"):
                tr, te = dgp.split_indices(y.tolist(), 0.8, seed + r)
            with self.t.span("classify.train"):
                model = iv.train(X[tr], y[tr], kind="hinge", steps=500, step_size=0.5,
                                 c_A=1.0, c_B=1.0)
            self.t.counts["classify.train_steps"] += 500
            self.t.counts["classify.train_flops"] += 500 * 3 * 2 * len(tr) * n_cls * X.shape[1]
            with self.t.span("classify.predict"):
                preds = [iv.predict(model, X[i]) for i in te]
            accs.append(iv.accuracy(preds, [int(y[i]) for i in te]))
            path = self.work / f"traced_model_run{r}.txt"
            iv.save_model(model, "hinge", path)
            models.append(path.read_bytes())
        self.results["linear.accuracies"] = accs
        self.results["linear.models"] = models

    def classify_knn(self, o):
        ds = self._load()
        kernel = iv.parse_kernel(o["kernel"])
        with self.t.span("dgp.split"):
            train, test = iv.train_test_split(ds, 0.8, int(o["seed"]))
        k, preds = int(o["k"]), []
        queries = test.series()
        with self.t.span("classify.knn"):
            for q in queries:
                with self.t.span("classify.knn_query"):
                    preds.append(iv.knn_classify(train, q, k, kernel))
        d, T = ds.dim(), len(queries[0])
        self.t.counts["classify.knn_pairs"] += len(queries) * len(train)
        self.t.counts["intervals.pair_forms"] += len(queries) * len(train) * T * d
        self.results["knn.accuracy"] = iv.accuracy(preds, test.labels())
        self.results["knn.split"] = (train, queries, kernel, k)

    def bound_mc(self, o):
        seed, draws, steps = int(o["seed"]), int(o["mc-draws"]), int(o["inner-steps"])
        # the synthetic feature set of `bound --mc` at its defaults (50 x 8, c_Z = 1)
        rng = np.random.default_rng([seed, 4242])
        X = rng.standard_normal((50, 8))
        norms = np.linalg.norm(X, axis=1)
        over = norms > 1.0
        X[over] *= (1.0 / norms[over])[:, None]
        varrho = iv.optimal_varrho(iv.lipschitz_constant("hinge"), 1.0, 1.0, 1.0)
        with self.t.span("theory.mc"):
            est = iv.empirical_offset_rademacher(X, 1.0, 1.0, varrho, mc_draws=draws,
                                                 inner_steps=steps, seed=seed, threads=1)
        self.t.counts["theory.mc_draws"] += draws
        self.t.counts["theory.mc_ascent_steps"] += draws * steps
        self.results["bound.mc"] = est.value

    # -- probes, outside the traced wall -------------------------------------
    def probe_pairs(self, ds_split=None):
        """Time `series_dk_squared` per call over a fixed sample of pairs
        (per dimension for multivariate items)."""
        if ds_split is None:
            ds = iv.load_dataset_csv(self.work / wl.DATASET)
            train, test = iv.train_test_split(ds, 0.8, 0)
            queries, kernel = test.series(), iv.kernel_preset("K4")
        else:
            train, queries, kernel, _ = ds_split
        items = train.series()
        pairs = [(queries[i % len(queries)], items[(7 * i) % len(items)])
                 for i in range(PAIR_SAMPLE)]
        dims = [(a.dimensions(), b.dimensions()) if hasattr(a, "dimensions") else ((a,), (b,))
                for a, b in pairs]
        calls = sum(len(a) for a, _ in dims)
        per_call = []
        with self.t.span("probe.series_pair"):
            for _ in range(5):
                start = time.perf_counter()
                for da, db in dims:
                    for a, b in zip(da, db):
                        iv.series_dk_squared(a, b, kernel)
                per_call.append((time.perf_counter() - start) / calls)
        return statistics.median(per_call) * 1e6

    def probe_knn_alloc(self):
        train, queries, kernel, k = self.results["knn.split"]
        with self.t.span("probe.knn_alloc"):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                for q in queries[:ALLOC_QUERIES]:
                    iv.knn_classify(train, q, k, kernel)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return peak / 2**20


def percentiles(prefix: str, samples_s: list[float]) -> dict[str, float]:
    """p50 and, where at least ten samples lie beyond it, p95, in ms."""
    xs = sorted(x * 1e3 for x in samples_s)
    out = {f"{prefix}.n": len(xs)}
    if xs:
        out[f"{prefix}.p50"] = statistics.median(xs)
        rank = math.ceil(0.95 * len(xs))
        if len(xs) - rank >= 10:
            out[f"{prefix}.p95"] = xs[rank - 1]
    return out


def import_seconds(env: dict, launches: int) -> float:
    """Median in-interpreter time of `import ivtskit` plus the CLI parser build."""
    code = ("import time; t = time.perf_counter(); import ivtskit.cli as c; "
            "c.build_parser(); print(time.perf_counter() - t)")
    runs = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True, timeout=60).stdout)
            for _ in range(launches)]
    return statistics.median(runs)


def run_traced(stages, work: Path, raw: Path, run_id: str, env: dict, raw_rows: int,
               launches: int):
    """Run `stages` traced; return (tracer, results, per-layer metrics, traced wall)."""
    t = Tracer(run_id)
    p = TracedPipeline(work, raw, t)
    wall = 0.0
    for st in stages:
        with t.span(f"stage.{st.kind}"):
            getattr(p, st.kind)(st.opts())
        wall += t.durations(f"stage.{st.kind}")[-1]
    kinds = {st.kind for st in stages}

    m: dict[str, float] = {}
    m["cli.import_s"] = import_seconds(env, launches)
    if "ingest" in kinds:
        m["cli.ingest_s"] = t.total("cli.ingest")
        # ingest saves inside cli.main; time the same save on its own
        p._save(iv.load_dataset_csv(work / wl.DATASET), work / "probe_resave.csv",
                span="probe.save_csv")
        m["dgp.save_csv_s"] = t.total("probe.save_csv")
    else:
        m["dgp.save_csv_s"] = t.total("dgp.save_csv")
    m["cli.ingest_rows"] = raw_rows if "ingest" in kinds else 0
    m["cli.ingest_dropped_days"] = t.counts["cli.ingest_dropped_days"]
    if "generate" in kinds:
        gen = t.total("dgp.generate")
        m["dgp.generate_s"] = gen
        m["dgp.generate_ms_per_item"] = gen * 1e3 / t.counts["dgp.items"]
    m["dgp.items"] = t.counts["dgp.items"]
    m["dgp.csv_bytes"] = t.counts["dgp.csv_bytes"]
    m["dgp.load_csv_s"] = t.total("dgp.load_csv")
    m["dgp.csv_rows"] = t.counts["dgp.csv_rows"]
    m["dgp.split_s"] = t.total("dgp.split")

    m["intervals.series_pair_us"] = p.probe_pairs(p.results.get("knn.split"))
    m["intervals.pair_forms"] = t.counts["intervals.pair_forms"]

    m["imaging.image_s"] = t.total("imaging.image")
    m.update(percentiles("imaging.image_ms", t.durations("imaging.image_item")))
    m["imaging.images"] = t.counts["imaging.images"]
    m["imaging.pixels"] = t.counts["imaging.pixels"]
    m["imaging.recurrence_rate"] = t.counts["imaging.ones"] / t.counts["imaging.pixels"]
    m["imaging.export_s"] = t.total("imaging.export")
    m["imaging.export_bytes"] = t.counts["imaging.export_bytes"]
    if t.durations("imaging.load"):
        m["imaging.load_s"] = t.total("imaging.load")

    m["classify.featurize_s"] = t.total("classify.featurize")
    m["classify.featurize_calls"] = t.counts["classify.featurize_calls"]
    m["classify.train_s"] = t.total("classify.train")
    m["classify.train_steps"] = t.counts["classify.train_steps"]
    m["classify.train_flops"] = t.counts["classify.train_flops"]
    m["classify.predict_s"] = t.total("classify.predict")
    m["classify.knn_pairs"] = t.counts["classify.knn_pairs"]
    if "classify_knn" in kinds:
        m["classify.knn_s"] = t.total("classify.knn")
        m.update(percentiles("classify.knn_query_ms", t.durations("classify.knn_query")))
        m["classify.knn_peak_alloc_mb"] = p.probe_knn_alloc()

    m["theory.mc_draws"] = t.counts["theory.mc_draws"]
    m["theory.mc_ascent_steps"] = t.counts["theory.mc_ascent_steps"]
    if "bound_mc" in kinds:
        m["theory.mc_s"] = t.total("theory.mc")
    return t, p.results, m, wall
