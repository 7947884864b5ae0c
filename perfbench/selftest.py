"""Self-test of the benchmark at tiny size; finishes in well under a minute.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it records the tiny-size digests, then runs the traced
mode against them, and asserts that every metric the workload has is
printed with its unit and direction, that the result line carries every
metric BENCHMARK.json lists, and that error_rate is 0.  It then alters one
recorded digest and asserts that error_rate becomes non-zero, and checks
that a directory holding only BENCHMARK.json and the benchmark makes the
benchmark fail without a result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run

ROOT = Path.cwd()
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in BENCH["end_to_end"]}
LAYER = {m["name"]: m for m in BENCH["per_layer"]}

# Metrics printed only on the workloads that have the stage or layer.
ONLY = {
    "generate_s": {"paper-uni", "mv-c1"}, "ingest_s": {"ingest-short"},
    "classify_knn_s": {"paper-uni", "mv-c1"}, "knn_accuracy": {"paper-uni", "mv-c1"},
    "bound_mc_s": {"paper-uni"},
    "cli.ingest_s": {"ingest-short"},
    "dgp.generate_s": {"paper-uni", "mv-c1"}, "dgp.generate_ms_per_item": {"paper-uni", "mv-c1"},
    "imaging.load_s": {"paper-uni", "ingest-short"},
    "classify.knn_s": {"paper-uni", "mv-c1"},
    "classify.knn_query_ms.p50": {"paper-uni", "mv-c1"},
    "classify.knn_query_ms.n": {"paper-uni", "mv-c1"},
    "classify.knn_peak_alloc_mb": {"paper-uni", "mv-c1"},
    "theory.mc_s": {"paper-uni"},
    # .p95 needs ten samples beyond it; the tiny sizes have fewer queries
    "classify.knn_query_ms.p95": set(),
}
PRINTED_E2E = [n for n in run.UNITS if "." not in n]
PRINTED_LAYER = [n for n in run.UNITS if "." in n]


def bench(work: Path, workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    """Run the benchmark; return (result line, {printed name: (value, unit, better)})."""
    out = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload, "--size", "tiny",
         "--seconds", "1", "--trace", str(trace), "--digests", str(work / "digests.json"),
         *extra], capture_output=True, text=True, timeout=120, check=True).stdout
    lines = out.strip().splitlines()
    printed = {}
    for line in lines:
        f = line.split()
        if f[0] in ("metric", "layer"):
            printed[f[1]] = (float(f[2]), f[3], f[4].strip("("))
    return json.loads(lines[-1]), printed


def expect_printed(workload: str, names, printed: dict) -> None:
    for name in names:
        if workload not in ONLY.get(name, {workload}):
            assert name not in printed, f"{workload}: {name} printed where it does not apply"
            continue
        assert name in printed, f"{workload}: {name} not printed"
        assert printed[name][1:] == run.UNITS[name], (workload, name, printed[name])


def expect_result(workload: str, res: dict, gated: dict) -> None:
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (workload, res)
    assert set(res["metrics"]) == set(gated), (workload, sorted(res["metrics"]))
    for name, m in res["metrics"].items():
        assert m["unit"] == gated[name]["unit"], (workload, name, m)
        assert isinstance(m["value"], (int, float)), (workload, name, m)


def main() -> int:
    start = time.perf_counter()
    for name, m in {**E2E, **LAYER}.items():
        assert (m["unit"], m["better"]) == run.UNITS[name], f"BENCHMARK.json: {name}"
    work = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for w in BENCH["workloads"]:
            name = w["name"]
            res, printed = bench(work, name, 0, "--record-digests")
            expect_result(name, res, E2E)
            expect_printed(name, PRINTED_E2E, printed)
            assert printed["error_rate"][0] == 0.0, (name, printed["error_rate"])
            res, printed = bench(work, name, 1)
            expect_result(name, res, LAYER)
            expect_printed(name, PRINTED_LAYER, printed)
            print(f"ok {name}", flush=True)

        book = json.loads((work / "digests.json").read_text())
        key = "ingest-short/tiny/seed0"
        book[key]["image.files"] = "0" * 64
        (work / "digests.json").write_text(json.dumps(book))
        res, printed = bench(work, "ingest-short", 0)
        assert not res["correct"] and res["failed"] >= 1, res
        assert printed["error_rate"][0] > 0.0, printed["error_rate"]
        print("ok an altered digest is a failed stage", flush=True)

        bare = work / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(BENCH["command"] + ["--workload", "ingest-short", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0 and not proc.stdout.strip().startswith("{"), proc
        print("ok a checkout without the program fails", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    took = time.perf_counter() - start
    print(f"selftest passed in {took:.1f} s")
    assert took < 60, f"selftest took {took:.1f} s"
    return 0


if __name__ == "__main__":
    sys.exit(main())
