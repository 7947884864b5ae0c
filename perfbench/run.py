"""Benchmark of the ivtskit pipeline: generate | ingest -> image -> classify -> bound.

Run from the repository root:

    python3 perfbench/run.py --workload paper-uni --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # the three workloads in turn

Each stage is a fresh `python -m ivtskit` process of the checkout's `src/`,
timed from outside.  The pipeline is repeated on the same inputs
`--seconds // rep_seconds` times (at least once); stage walls are medians
over the repetitions and `pipeline_s` is their sum.  Every stage output is
checked, and at a seed with recorded digests (`digests.json`) it must match
them byte for byte.  `--trace 1` runs one untraced repetition and then the
traced in-process mirror (traced.py), and reports the per-layer metrics.  The
last line of stdout is the result JSON; the metrics in it are the ones
BENCHMARK.json lists.
"""

from __future__ import annotations

import os

# The benchmark's own numpy work (input generation, the traced run) is
# single-threaded; this must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import rawgen  # noqa: E402
import workloads as wl  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 0
# A run stops starting stages after this many seconds, so that it always
# ends within the 180 s a run may take.
RUN_DEADLINE_S = 170.0
# Repetitions stop early (after at least two) when the next one would end
# past this multiple of --seconds, as it does on a host much slower than the
# one rep_seconds was measured on.
OVERRUN = 1.25
SETUP_LAUNCHES = {"full": 9, "tiny": 3}
IMPORT_LAUNCHES = {"full": 5, "tiny": 2}

# name -> (unit, better).  BENCHMARK.json picks the metrics the result line
# carries; everything here is printed where it applies.
UNITS = {
    "setup_s": ("s", "lower"),
    "generate_s": ("s", "lower"),
    "ingest_s": ("s", "lower"),
    "image_s": ("s", "lower"),
    "classify_linear_s": ("s", "lower"),
    "classify_knn_s": ("s", "lower"),
    "bound_mc_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "error_rate": ("ratio", "lower"),
    "linear_accuracy": ("ratio", "higher"),
    "knn_accuracy": ("ratio", "higher"),
    "cli.import_s": ("s", "lower"),
    "cli.ingest_s": ("s", "lower"),
    "cli.ingest_rows": ("count", "lower"),
    "cli.ingest_dropped_days": ("count", "lower"),
    "dgp.generate_s": ("s", "lower"),
    "dgp.generate_ms_per_item": ("ms", "lower"),
    "dgp.items": ("count", "lower"),
    "dgp.save_csv_s": ("s", "lower"),
    "dgp.csv_bytes": ("bytes", "lower"),
    "dgp.load_csv_s": ("s", "lower"),
    "dgp.csv_rows": ("count", "lower"),
    "dgp.split_s": ("s", "lower"),
    "intervals.series_pair_us": ("us", "lower"),
    "intervals.pair_forms": ("count", "lower"),
    "imaging.image_s": ("s", "lower"),
    "imaging.image_ms.p50": ("ms", "lower"),
    "imaging.image_ms.p95": ("ms", "lower"),
    "imaging.image_ms.n": ("count", "lower"),
    "imaging.images": ("count", "lower"),
    "imaging.pixels": ("count", "lower"),
    # a guard, not a speed: a speed-up must leave it unchanged
    "imaging.recurrence_rate": ("ratio", "higher"),
    "imaging.export_s": ("s", "lower"),
    "imaging.export_bytes": ("bytes", "lower"),
    "imaging.load_s": ("s", "lower"),
    "classify.featurize_s": ("s", "lower"),
    "classify.featurize_calls": ("count", "lower"),
    "classify.train_s": ("s", "lower"),
    "classify.train_steps": ("count", "lower"),
    "classify.train_flops": ("flop", "lower"),
    "classify.predict_s": ("s", "lower"),
    "classify.knn_s": ("s", "lower"),
    "classify.knn_query_ms.p50": ("ms", "lower"),
    "classify.knn_query_ms.p95": ("ms", "lower"),
    "classify.knn_query_ms.n": ("count", "lower"),
    "classify.knn_pairs": ("count", "lower"),
    "classify.knn_peak_alloc_mb": ("MB", "lower"),
    "theory.mc_s": ("s", "lower"),
    "theory.mc_draws": ("count", "lower"),
    "theory.mc_ascent_steps": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class CheckFailed(Exception):
    """A stage output that is missing, malformed or wrong."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# environment


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without searching parent dirs."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, workload: str, threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": usable_cpus(),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(root),
        "workload": workload,
        "threads": threads,
        "blas_threads": threads,
    }


def child_env(src: Path, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env.pop("IVTS_THREADS", None)  # every stage gets --threads
    return env


# ---------------------------------------------------------------------------
# running one process


def run_process(argv: list[str], cwd: Path, env: dict, deadline: float):
    """Run `python -m ivtskit *argv`; return (exit code, wall s, peak RSS MB).

    The child's own peak RSS comes from wait4.  A child still running at
    `deadline` is killed and reports exit code -9.
    """
    with open(cwd / "stage.out", "wb") as out, open(cwd / "stage.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ivtskit", *argv], cwd=cwd, env=env,
                                stdout=out, stderr=err)
        done = threading.Event()

        def kill():
            if not done.is_set():
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            done.set()
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# output checks: each returns (digests, info) or raises CheckFailed


def _dataset_lines(data: bytes, shp: dict) -> list[bytes]:
    lines = data.split(b"\n")
    expect = 1 + shp["n"] * shp["d"] * shp["T"]
    if lines[0] != b"item,dim,t,lower,upper,label" or len(lines) != expect + 1 or lines[-1]:
        raise CheckFailed(f"dataset CSV has {len(lines) - 1} lines, expected {expect}")
    return lines


def check_dataset(work, shp, stage, stdout, stderr):
    data = (work / wl.DATASET).read_bytes()
    _dataset_lines(data, shp)
    info = {}
    if stage.kind == "ingest":
        dropped = sum(int(line.split("dropped ")[1].split()[0])
                      for line in stderr.splitlines() if "dropped " in line)
        expect = shp["dropped_days"]
        if dropped != expect:
            raise CheckFailed(f"ingest dropped {dropped} days, expected {expect}")
        info["dropped_days"] = dropped
    return {f"{stage.kind}.dataset_csv": sha256(data)}, info


def _item_series(lines: list[bytes], i: int, shp: dict):
    """Series of item `i`, read from the dataset CSV rows."""
    import numpy as np
    from ivtskit import IntervalSeries, MvIntervalSeries

    d, T = shp["d"], shp["T"]
    rows = lines[1 + i * d * T: 1 + (i + 1) * d * T]
    grid = np.array([[float(v) for v in r.split(b",")[3:5]] for r in rows]).reshape(d, T, 2)
    return IntervalSeries(grid[0]) if d == 1 else MvIntervalSeries(grid)


def _pixels(blob: bytes, fmt: str, n: int):
    import numpy as np

    if fmt == "pgm":
        head = f"P5\n{n} {n}\n255\n".encode()
        body = blob[len(head):]
        if not blob.startswith(head) or len(body) != n * n or body.translate(None, b"\0\xff"):
            raise CheckFailed("malformed PGM image")
        return np.frombuffer(body, dtype=np.uint8) > 0
    if len(blob) != 2 * n * n or blob.count(b"\n") != n or blob.translate(None, b"01,\n"):
        raise CheckFailed("malformed CSV image")
    return np.frombuffer(blob, dtype=np.uint8)[0::2] == ord("1")


def check_images(work, shp, stage, stdout, stderr):
    import ivtskit as iv

    o = stage.opts()
    fmt, n_items, N = o["format"], shp["n"], shp["T"]
    outdir = work / wl.IMAGES
    index = (outdir / "index.csv").read_bytes()
    rows = index.decode("ascii").splitlines()
    if rows[0] != "file,item,label" or len(rows) != n_items + 1:
        raise CheckFailed(f"index.csv lists {len(rows) - 1} images, expected {n_items}")
    lines = _dataset_lines((work / wl.DATASET).read_bytes(), shp)
    labels = [int(lines[1 + i * shp["d"] * shp["T"]].split(b",")[5]) for i in range(n_items)]
    stem = Path(wl.DATASET).stem
    h = hashlib.sha256()
    blobs = {}
    sample = {0, n_items // 2, n_items - 1}
    for i, row in enumerate(rows[1:]):
        if row != f"{stem}_{i}.{fmt},{i},{labels[i]}":
            raise CheckFailed(f"index.csv row {i + 1} is {row!r}")
        blob = (outdir / f"{stem}_{i}.{fmt}").read_bytes()
        _pixels(blob, fmt, N)
        h.update(blob)
        if i in sample:
            blobs[i] = blob
    cfg = iv.TrajectoryConfig(m=1, kappa=1, epsilon=iv.DEFAULT_EPSILON)
    kernel = iv.parse_kernel(o["kernel"])
    for i, blob in blobs.items():
        want = iv.image_series(_item_series(lines, i, shp), cfg, kernel).pixels
        if not (_pixels(blob, fmt, N) == want.astype(bool).reshape(-1)).all():
            raise CheckFailed(f"image of item {i} differs from ivtskit.image_series")
    return {"image.files": h.hexdigest(), "image.index_csv": sha256(index)}, {}


def _report(path: Path, runs: int, seed: int) -> list[float]:
    rows = path.read_text().splitlines()
    if rows[0] != "run,kernel,dgp,seed,accuracy" or len(rows) != runs + 1:
        raise CheckFailed(f"{path.name} has {len(rows) - 1} runs, expected {runs}")
    accs = []
    for r, row in enumerate(rows[1:]):
        f = row.split(",")
        acc = float(f[4])
        if int(f[0]) != r or int(f[3]) != seed + r or not 0.0 <= acc <= 1.0:
            raise CheckFailed(f"{path.name} row {r + 1} is {row!r}")
        accs.append(acc)
    return accs


def check_linear(work, shp, stage, stdout, stderr):
    o = stage.opts()
    runs, seed = int(o.get("runs", 1)), int(o["seed"])
    p = int(o["blocks"]) ** 2 if o["feature-mode"] == "block_mean" else shp["T"] ** 2
    report = work / wl.LINEAR / "report.csv"
    accs = _report(report, runs, seed)
    models = b""
    for r in range(runs):
        blob = (work / wl.LINEAR / f"model_run{r}.txt").read_bytes()
        lines = blob.decode("ascii").splitlines()
        head = lines[0].split()
        if head[:2] != [str(shp["C"]), str(p)] or len(lines) != shp["C"] + 1 \
                or any(len(ln.split()) != p + 1 for ln in lines[1:]):
            raise CheckFailed(f"model_run{r}.txt is not a {shp['C']} x {p} model")
        models += blob
    return ({"classify_linear.report_csv": sha256(report.read_bytes()),
             "classify_linear.models": sha256(models)},
            {"accuracies": accs})


def check_knn(work, shp, stage, stdout, stderr):
    report = work / wl.KNN / "report.csv"
    accs = _report(report, 1, int(stage.opts()["seed"]))
    return {"classify_knn.report_csv": sha256(report.read_bytes())}, {"accuracy": accs[0]}


def check_bound(work, shp, stage, stdout, stderr):
    o = stage.opts()
    kv = dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
    try:
        mc = float(kv["mc_offset_rademacher"])
        ok = (kv["mc_draws"] == o["mc-draws"] and kv["mc_inner_steps"] == o["inner-steps"]
              and math.isfinite(mc) and mc >= 0.0
              and math.isfinite(float(kv["excess_risk_bound"])))
    except (KeyError, ValueError) as e:
        raise CheckFailed(f"bound output lacks {e}") from None
    if not ok:
        raise CheckFailed(f"bound output is wrong: {kv}")
    return {"bound_mc.stdout": sha256(stdout.encode())}, {"mc": kv["mc_offset_rademacher"]}


CHECKS = {"generate": check_dataset, "ingest": check_dataset, "image": check_images,
          "classify_linear": check_linear, "classify_knn": check_knn,
          "bound_mc": check_bound}


# ---------------------------------------------------------------------------
# the untraced pipeline


def log(msg: str) -> None:
    print(msg, flush=True)


def run_pipeline(stages, work: Path, env: dict, shp: dict, deadline: float) -> list[dict]:
    """One repetition of all stages; one record per stage."""
    for name in (wl.IMAGES, wl.LINEAR, wl.KNN):
        shutil.rmtree(work / name, ignore_errors=True)
    (work / wl.DATASET).unlink(missing_ok=True)
    ok: dict[str, bool] = {}
    records = []
    for st in stages:
        rec = {"kind": st.kind, "ok": False, "digests": {}, "info": {}}
        records.append(rec)
        if not all(ok.get(n) for n in st.needs):
            rec["error"] = "input stage failed"
            ok[st.kind] = False
            continue
        if time.perf_counter() > deadline:
            rec["error"] = "run deadline reached"
            ok[st.kind] = False
            continue
        rc, wall, rss = run_process(list(st.argv), work, env, deadline)
        rec.update(rc=rc, wall=wall, rss_mb=rss)
        stdout = (work / "stage.out").read_text(errors="replace")
        stderr = (work / "stage.err").read_text(errors="replace")
        if rc != 0:
            rec["error"] = f"exit {rc}: {stderr.strip()[-300:]}"
        else:
            try:
                rec["digests"], rec["info"] = CHECKS[st.kind](work, shp, st, stdout, stderr)
                rec["ok"] = True
            except (CheckFailed, OSError, ValueError, IndexError) as e:
                rec["error"] = f"check: {e}"
        ok[st.kind] = rec["ok"]
        log(f"stage {st.kind:<16} {wall:9.4f} s  rss {rss:7.1f} MB  rc {rc}"
            + ("" if rec["ok"] else f"  FAILED {rec['error']}"))
    return records


def measure_setup(work: Path, env: dict, launches: int, deadline: float) -> float:
    """Median wall of a fresh `python -m ivtskit --help` (after one warm-up)."""
    walls = []
    for i in range(launches + 1):
        rc, wall, _ = run_process(["--help"], work, env, deadline)
        if rc != 0:
            raise RuntimeError(f"`python -m ivtskit --help` exited {rc}")
        if i:
            walls.append(wall)
    return statistics.median(walls)


# ---------------------------------------------------------------------------


def end_to_end(reps: list[list[dict]], setup_s: float) -> dict:
    m = {"setup_s": setup_s}
    for kind in [r["kind"] for r in reps[0]]:
        walls = [r["wall"] for rep in reps for r in rep if r["kind"] == kind and r["ok"]]
        if walls:
            m[f"{kind}_s"] = statistics.median(walls)
    whole = [rep for rep in reps if all(r["ok"] for r in rep)]
    if whole:
        # the sum of the stages' median walls: a stage slowed by the host in
        # one repetition does not carry that repetition's other stages with it
        m["pipeline_s"] = sum(statistics.median(rep[i]["wall"] for rep in whole)
                              for i in range(len(whole[0])))
        m["peak_rss_mb"] = statistics.median(max(r["rss_mb"] for r in rep) for rep in whole)
    first = {r["kind"]: r for r in reps[0]}
    if "classify_linear" in first and first["classify_linear"]["ok"]:
        m["linear_accuracy"] = statistics.fmean(first["classify_linear"]["info"]["accuracies"])
    if "classify_knn" in first and first["classify_knn"]["ok"]:
        m["knn_accuracy"] = first["classify_knn"]["info"]["accuracy"]
    return m


def traced_checks(untraced: list[dict], results: dict, twork: Path) -> list[str]:
    """Differences between the traced mirror's outputs and the CLI's."""
    u = {r["kind"]: r for r in untraced}
    bad = []
    for kind in ("generate", "ingest"):
        if kind in u and sha256((twork / wl.DATASET).read_bytes()) != \
                u[kind]["digests"].get(f"{kind}.dataset_csv"):
            bad.append(f"{kind}: dataset CSV")
    if "image" in u:
        h = hashlib.sha256()
        for p in results["image.paths"]:
            h.update(p.read_bytes())
        if h.hexdigest() != u["image"]["digests"].get("image.files"):
            bad.append("image: image files")
    if "classify_linear" in u:
        if results["linear.accuracies"] != u["classify_linear"]["info"].get("accuracies") or \
                sha256(b"".join(results["linear.models"])) != \
                u["classify_linear"]["digests"].get("classify_linear.models"):
            bad.append("classify_linear: accuracies or models")
    if "classify_knn" in u and results["knn.accuracy"] != u["classify_knn"]["info"].get(
            "accuracy"):
        bad.append("classify_knn: accuracy")
    if "bound_mc" in u and repr(results["bound.mc"]) != u["bound_mc"]["info"].get("mc"):
        bad.append("bound_mc: Monte-Carlo value")
    return bad


def check_digests(reps: list[list[dict]], path: Path, key: str, record: bool) -> None:
    """Fail the stages whose outputs differ between repetitions or from the
    digests recorded under `key`; with `record`, store them there instead."""
    digests = {k: v for r in reps[0] for k, v in r["digests"].items()}
    book = json.loads(path.read_text()) if path.is_file() else {}
    recorded = None if record else book.get(key)
    for rep in reps:
        for r, r0 in zip(rep, reps[0]):
            if not r["ok"]:
                continue
            if r["digests"] != r0["digests"]:
                r.update(ok=False, error="output differs between repetitions")
            elif recorded is not None and any(recorded.get(k) != v
                                              for k, v in r["digests"].items()):
                r.update(ok=False, error="digest differs from the record")
    if record:
        book[key] = digests
        path.write_text(json.dumps(book, indent=2, sort_keys=True) + "\n")
        log(f"recorded {len(digests)} digests as {key} in {path}")
    for k, v in sorted(digests.items()):
        status = "" if recorded is None else (
            "  match" if recorded.get(k) == v else "  DIFFERS")
        log(f"digest {k} {v}{status}")


def trace_layers(stages, work: Path, run_id: str, env: dict, raw_rows: int, launches: int,
               untraced: list[dict], e2e: dict, out: Path, env_record: dict):
    """The traced run; returns (per-layer metrics, problems).  Its spans go
    to `out`/trace-<run id>.json."""
    import traced

    twork = work / "traced"
    twork.mkdir()
    try:
        tracer, results, layer, wall = traced.run_traced(
            stages, twork, work / wl.RAW, run_id, env, raw_rows, launches)
    except Exception:  # a program fault: report every traced stage as failed
        log("traced run failed:\n" + traceback.format_exc())
        return {}, [f"traced {st.kind}: run failed" for st in stages]
    bad = [f"traced {b} differ from the CLI's" for b in traced_checks(untraced, results, twork)]
    if "pipeline_s" in e2e:
        layer["trace.overhead_s"] = wall - e2e["pipeline_s"]
    log(f"traced wall {wall:.4f} s")
    log(f"{'span':<28}{'count':>8}{'total_s':>12}{'self_s':>12}")
    for name, (count, total, own) in sorted(tracer.self_times().items()):
        log(f"{name:<28}{count:>8}{total:>12.4f}{own:>12.4f}")
    for name, value in layer.items():
        unit, better = UNITS[name]
        log(f"layer {name} {value:.6g} {unit} ({better} is better)")
    out.mkdir(exist_ok=True)
    (out / f"trace-{run_id}.json").write_text(json.dumps(
        {"env": env_record, "metrics": layer, "end_to_end": e2e, **tracer.dump()}))
    return layer, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"],
                    help="all runs every workload in turn, each in its own process")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is the self-test size")
    ap.add_argument("--threads", type=int, default=None,
                    help="override the workload's thread count (capped at nproc)")
    ap.add_argument("--digests", type=Path, default=DIGESTS,
                    help="recorded digests, keyed by workload/size/seed")
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's digests in --digests instead of comparing")
    args = ap.parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size, "--digests", str(args.digests)]
        rest += ["--threads", str(args.threads)] if args.threads else []
        rest += ["--record-digests"] if args.record_digests else []
        return max(subprocess.run([sys.executable, __file__, "--workload", name, *rest]).returncode
                   for name in wl.WORKLOADS)

    deadline = time.perf_counter() + RUN_DEADLINE_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "ivtskit" / "__init__.py").is_file():
        print("perfbench: src/ivtskit not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    gated = json.loads((root / "BENCHMARK.json").read_text())

    work_def = wl.WORKLOADS[args.workload]
    z = work_def.tiny if args.size == "tiny" else work_def.full
    shp = wl.shape(work_def.name, z)
    threads = max(1, min(args.threads or work_def.threads, usable_cpus()))
    stages = work_def.stages(z, str(args.seed), str(threads))
    env = child_env(src, threads)
    log(f"perfbench {work_def.name} seed={args.seed} size={args.size} trace={args.trace}")
    log(f"why: {work_def.why}")
    log(f"moves: {work_def.moves}")
    log(f"no change expected: {work_def.no_change}")
    env_record = environment(root, work_def.name, threads)
    log("env " + json.dumps(env_record, sort_keys=True))

    work = root / ".bench_work" / f"{work_def.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        raw_rows = 0
        if work_def.name == "ingest-short":
            raw_rows = rawgen.write_raw_readings(
                work / wl.RAW, args.seed, z["series"], z["dims"], z["days"], z["per_day"])
        setup_s = measure_setup(work, env, SETUP_LAUNCHES[args.size], deadline)

        n_reps = 1 if args.trace else max(1, int(args.seconds // work_def.rep_seconds))
        reps: list[list[dict]] = []
        start = time.perf_counter()
        while len(reps) < n_reps:
            spent = time.perf_counter() - start
            if len(reps) >= 2 and spent * (len(reps) + 1) / len(reps) > OVERRUN * args.seconds:
                break  # the host runs slow: keep the run near --seconds
            reps.append(run_pipeline(stages, work, env, shp, deadline))

        check_digests(reps, args.digests, f"{work_def.name}/{args.size}/seed{args.seed}",
                      args.record_digests)
        records = [r for rep in reps for r in rep]
        attempted, failed = len(records), sum(not r["ok"] for r in records)
        problems = [f"{r['kind']}: {r['error']}" for r in records if not r["ok"]]

        metrics = end_to_end(reps, setup_s)
        metrics["error_rate"] = failed / attempted
        log(f"repetitions {len(reps)}")
        for name, value in metrics.items():
            unit, better = UNITS[name]
            log(f"metric {name} {value:.6g} {unit} ({better} is better)")

        if args.trace:
            run_id = f"{work_def.name}-{args.size}-seed{args.seed}"
            layer, bad = trace_layers(stages, work, run_id, env, raw_rows,
                                      IMPORT_LAUNCHES[args.size], reps[0], metrics,
                                      root / ".bench_out", env_record)
            attempted += len(stages)
            failed += len(bad)
            problems += bad
            metrics = layer
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = gated["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    for p in problems:
        log(f"problem {p}")
    if missing:
        log(f"problem metrics not measured: {missing}")
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": UNITS[m["name"]][0]}
                    for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
