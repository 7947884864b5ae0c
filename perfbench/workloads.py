"""The benchmark's workloads: which CLI stages run, at which size, and why.

Every workload is closed-loop with one client: each stage is a fresh
`python -m ivtskit` process that starts when the previous one has ended.
The thread count is fixed per workload and capped at the cores this process
may use.  `full` is the measured size; `tiny` is the self-test size, chosen
so that every per-item percentile still has at least 200 samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import rawgen


@dataclass(frozen=True)
class Stage:
    """One CLI invocation.

    `kind` selects the output check and names the stage-wall metric
    (`<kind>_s`); `needs` lists the stages whose outputs it reads.
    """

    kind: str
    argv: tuple[str, ...]
    needs: tuple[str, ...] = ()

    def opts(self) -> dict[str, str]:
        """`--flag value` pairs of the argv, keyed without dashes; bare flags map to ""."""
        out, key = {}, None
        for tok in self.argv[1:]:
            if tok.startswith("--"):
                key = tok[2:]
                out[key] = ""
            elif key is not None:
                out[key] = tok
                key = None
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    moves: str
    no_change: str
    threads: int
    # Seconds one repetition took when the benchmark was added (2 vCPUs).
    # The repetition count is `--seconds` over this, rounded down, so it
    # never depends on how fast a run happens to go.
    rep_seconds: float
    stages: Callable[[dict, str, str], list[Stage]]
    full: dict
    tiny: dict


# Names of the files a stage writes inside the work directory.
DATASET = "ds.csv"
RAW = "raw.csv"
IMAGES = "img"
LINEAR = "lin"
KNN = "knn"


def _paper_uni(z: dict, seed: str, th: str) -> list[Stage]:
    return [
        Stage("generate", ("generate", "--dgp", "2", "--per-class", str(z["per_class"]),
                           "--T", str(z["T"]), "--seed", seed, "--out", DATASET)),
        Stage("image", ("image", "--data", DATASET, "--outdir", IMAGES, "--kernel", "K4",
                        "--format", "pgm", "--threads", th), ("generate",)),
        Stage("classify_linear", ("classify", "--images", IMAGES, "--mode", "linear",
                                  "--feature-mode", "block_mean", "--blocks", "10",
                                  "--seed", seed, "--outdir", LINEAR, "--threads", th),
              ("image",)),
        Stage("classify_knn", ("classify", "--data", DATASET, "--mode", "knn", "--k", "1",
                               "--kernel", "K4", "--seed", seed, "--outdir", KNN,
                               "--threads", th), ("generate",)),
        Stage("bound_mc", ("bound", "--n", "100", "--log-covering", "10", "--mc",
                           "--mc-draws", str(z["mc_draws"]),
                           "--inner-steps", str(z["inner_steps"]),
                           "--seed", seed, "--threads", th)),
    ]


def _mv_c1(z: dict, seed: str, th: str) -> list[Stage]:
    return [
        Stage("generate", ("generate", "--scenario", "c1", "--per-class", str(z["per_class"]),
                           "--T", str(z["T"]), "--seed", seed, "--out", DATASET)),
        Stage("image", ("image", "--data", DATASET, "--outdir", IMAGES, "--kernel", "K5",
                        "--format", "pgm", "--threads", th), ("generate",)),
        Stage("classify_linear", ("classify", "--data", DATASET, "--mode", "linear",
                                  "--feature-mode", "flatten", "--kernel", "K5",
                                  "--seed", seed, "--outdir", LINEAR, "--threads", th),
              ("generate",)),
        Stage("classify_knn", ("classify", "--data", DATASET, "--mode", "knn", "--k", "3",
                               "--kernel", "K5", "--seed", seed, "--outdir", KNN,
                               "--threads", th), ("generate",)),
    ]


def _ingest_short(z: dict, seed: str, th: str) -> list[Stage]:
    return [
        Stage("ingest", ("ingest", "--input", RAW, "--out", DATASET,
                         "--window", str(z["window"]))),
        Stage("image", ("image", "--data", DATASET, "--outdir", IMAGES, "--kernel", "K4",
                        "--format", "csv", "--threads", th), ("ingest",)),
        Stage("classify_linear", ("classify", "--images", IMAGES, "--mode", "linear",
                                  "--feature-mode", "block_mean", "--blocks", "10",
                                  "--runs", "5", "--seed", seed, "--outdir", LINEAR,
                                  "--threads", th), ("image",)),
    ]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="paper-uni",
        why="paper-style univariate DGP2 (5 classes x 120, T=150) single-threaded: the k-NN "
            "scan, block_mean featurize, the VARMA recursion, CSV and PGM I/O, the MC estimator",
        moves="k-NN scan (about a fifth of pipeline_s), block_mean featurize, gen_dgp2, dataset "
              "CSV save/load, PGM write/read, Monte-Carlo estimator (about a quarter of "
              "pipeline_s); plain 1-thread baseline",
        no_change="thread pools (runs with --threads 1)",
        threads=1,
        rep_seconds=7.5,
        stages=_paper_uni,
        full={"per_class": 120, "T": 150, "classes": 5, "dims": 1,
              "mc_draws": 256, "inner_steps": 200},
        tiny={"per_class": 40, "T": 30, "classes": 5, "dims": 1,
              "mc_draws": 16, "inner_steps": 20},
    ),
    Workload(
        name="mv-c1",
        why="scenario c1 (3 classes x 50, 5 dims, T=150) at 2 threads: multivariate imaging, "
            "in-memory flatten features, matmul-bound training, per-dimension k-NN",
        moves="ijrp imaging (5 irp + AND per item), train (n x p)(p x C) matmuls at p=22500, "
              "per-dimension k-NN distances, all three generators, the thread pools",
        no_change="PGM read path, block_mean featurize, Monte-Carlo estimator",
        threads=2,
        rep_seconds=7.0,
        stages=_mv_c1,
        full={"per_class": 50, "T": 150, "classes": 3, "dims": 5},
        tiny={"per_class": 70, "T": 30, "classes": 3, "dims": 5},
    ),
    Workload(
        name="ingest-short",
        why="real-data path: ingest of about 400k raw readings into 1080 windows of T=30, CSV "
            "images, five trainings on the same features; no generator, k-NN or theory",
        moves="ingest parsing, per-item overhead at N=30, CSV image writer and reader, "
              "repeated train on fixed features",
        no_change="generators, k-NN scan, Monte-Carlo estimator (none of them run here)",
        threads=1,
        rep_seconds=6.5,
        stages=_ingest_short,
        full={"series": 90, "dims": 3, "days": 360, "per_day": 4, "window": 30,
              "classes": 4},
        tiny={"series": 40, "dims": 3, "days": 60, "per_day": 4, "window": 10,
              "classes": 4},
    ),
)}


def shape(name: str, z: dict) -> dict:
    """Items, classes, dims and series length of the dataset a workload makes
    (and, for ingest, the days it must drop)."""
    if name == "ingest-short":
        n = z["series"] * (z["days"] // z["window"])
        return {"n": n, "C": z["classes"], "d": z["dims"], "T": z["window"],
                "dropped_days": z["series"] * rawgen.missing_per_series(z["days"], z["dims"])}
    return {"n": z["per_class"] * z["classes"], "C": z["classes"], "d": z["dims"],
            "T": z["T"]}
