"""Wall time, peak RSS and minor page faults of `python -m ivtskit ARGS...`,
launched K times.

    PYTHONPATH=src python tools/stage_peak.py K classify --data c1.csv --feature-mode flatten ...
    PYTHONPATH=src python tools/stage_peak.py K --against ROOT classify --data c1.csv ...

A child's wait4 peak counts the RSS it inherits at spawn, so this launcher
imports no numpy: its own ~13 MB stays below every stage's.  The child's
stdout is captured and read to its end before wait4 reaps the child; each
launch prints its exit code, wall, peak RSS and minor page faults (wait4's
ru_minflt), and for K >= 2 a last line prints the medians of the three over
the K launches.

Each side runs a copy of its `ivtskit` package without `__pycache__`, made
in a temporary directory put first on PYTHONPATH, with
PYTHONDONTWRITEBYTECODE=1: every launch compiles the package from source, as
in a fresh checkout, whatever bytecode the tree holds, and reads the
installed bytecode of the standard library and numpy as usual.

With `--against ROOT` the launches alternate between the caller's tree (A,
the `ivtskit` that the caller's PYTHONPATH finds) and the checkout at ROOT
(B, its `src/ivtskit`) in A B B A order, K launches per side.  Each launch
line is tagged A or B, each side gets its median line, a line counts the
pairs in which B's printed wall was the shorter (a pair of equal printed
walls is no win), and a last line counts the pairs whose two launches wrote
the same stdout bytes.  Exits 1 when any launch fails, and 2 on a usage
error or when no `ivtskit` package is found.
"""

import importlib.util
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time


def launch(args: list[str], env: dict) -> tuple[int, float, float, int, bytes]:
    """(exit code, wall s, peak MB, minor faults, stdout) of one
    `python -m ivtskit ARGS...`."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "ivtskit", *args],
                            stdout=subprocess.PIPE, env=env)
    out = proc.stdout.read()  # to EOF, so the child never blocks on a full pipe
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    # the wall as printed, to the ms, so that the medians and the pairs won
    # are counted on the values the output shows
    wall = float(f"{time.perf_counter() - start:.3f}")
    return (os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024,
            usage.ru_minflt, out)


def fresh_env(package: str, dest: str) -> dict:
    """The environment of a launch that imports the package directory
    `package` from a copy in `dest` that holds no bytecode, and writes none."""
    shutil.copytree(package, os.path.join(dest, "ivtskit"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = os.pathsep.join(filter(None, [dest, os.environ.get("PYTHONPATH", "")]))
    return dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")


def main(argv: list[str]) -> int:
    against = argv[1:2] == ["--against"]
    if len(argv) < 2 + 2 * against or not argv[0].isdigit():
        print("usage: stage_peak.py K [--against ROOT] ARGS...", file=sys.stderr)
        return 2
    k, args = int(argv[0]), argv[1:]
    spec = importlib.util.find_spec("ivtskit")
    if spec is None or not spec.submodule_search_locations:
        print("stage_peak.py: no ivtskit package on the path", file=sys.stderr)
        return 2
    packages = {"": spec.submodule_search_locations[0]}  # tag -> package directory
    if against:
        packages = {"A ": packages[""], "B ": os.path.join(args[1], "src", "ivtskit")}
        args = args[2:]
    with tempfile.TemporaryDirectory() as tmp:
        sides = {tag: fresh_env(package, os.path.join(tmp, str(i)))
                 for i, (tag, package) in enumerate(packages.items())}
        return run(k, args, sides)


def run(k: int, args: list[str], sides: dict) -> int:
    """Launch `args` K times per side, each side with its environment, and
    print the lines the module docstring lists."""
    runs = {tag: [] for tag in sides}
    failed = False
    for i in range(k):
        for tag in list(sides)[:: 1 if i % 2 == 0 else -1]:
            code, wall, peak, faults, out = launch(args, sides[tag])
            failed = failed or code != 0
            runs[tag].append((wall, peak, faults, out))
            print(f"{tag}exit {code} wall_s {wall:.3f} peak_mb {peak:.2f} minflt {faults}")
    if k >= 2:
        for tag, rows in runs.items():
            walls, peaks, faults, _ = zip(*rows)
            print(f"{tag}median wall_s {statistics.median(walls):.3f} "
                  f"peak_mb {statistics.median(peaks):.2f} "
                  f"minflt {statistics.median(faults):.0f}")
    if "B " in sides:
        wins = sum(b[0] < a[0] for a, b in zip(runs["A "], runs["B "]))
        print(f"B faster in {wins} of {k} pairs")
        same = sum(a[3] == b[3] for a, b in zip(runs["A "], runs["B "]))
        print(f"stdout identical in {same} of {k} pairs")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
