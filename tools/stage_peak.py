"""Wall time and peak RSS of `python -m ivtskit ARGS...`, launched K times.

    PYTHONPATH=src python tools/stage_peak.py K classify --data c1.csv --feature-mode flatten ...
    PYTHONPATH=src python tools/stage_peak.py K --against ROOT classify --data c1.csv ...

A child's wait4 peak counts the RSS it inherits at spawn, so this launcher
imports no numpy: its own ~13 MB stays below every stage's.  The child's
stdout is captured and read to its end before wait4 reaps the child; each
launch prints its exit code, wall and peak RSS, and for K >= 2 a last line
prints the median wall and peak of the K launches.

With `--against ROOT` the launches alternate between the caller's tree (A)
and the checkout at ROOT (B, its `src` first on PYTHONPATH) in A B B A
order, K launches per side.  Each launch line is tagged A or B, each side
gets its median line, a line counts the pairs in which B's printed wall was
the shorter (a pair of equal printed walls is no win), and a last line counts
the pairs whose two launches wrote the same stdout bytes.  Exits 1 when any
launch fails.
"""

import os
import statistics
import subprocess
import sys
import time


def launch(args: list[str], env: dict | None) -> tuple[int, float, float, bytes]:
    """(exit code, wall s, peak MB, stdout) of one `python -m ivtskit ARGS...`."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "ivtskit", *args],
                            stdout=subprocess.PIPE, env=env)
    out = proc.stdout.read()  # to EOF, so the child never blocks on a full pipe
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    # the wall as printed, to the ms, so that the medians and the pairs won
    # are counted on the values the output shows
    wall = float(f"{time.perf_counter() - start:.3f}")
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024, out


def main(argv: list[str]) -> int:
    against = argv[1:2] == ["--against"]
    if len(argv) < 2 + 2 * against or not argv[0].isdigit():
        print("usage: stage_peak.py K [--against ROOT] ARGS...", file=sys.stderr)
        return 2
    k, args = int(argv[0]), argv[1:]
    sides = {"": None}  # tag -> environment; None inherits the caller's
    if against:
        path = [os.path.join(args[1], "src"), os.environ.get("PYTHONPATH", "")]
        sides = {"A ": None, "B ": dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))}
        args = args[2:]
    runs = {tag: [] for tag in sides}
    failed = False
    for i in range(k):
        for tag in list(sides)[:: 1 if i % 2 == 0 else -1]:
            code, wall, peak, out = launch(args, sides[tag])
            failed = failed or code != 0
            runs[tag].append((wall, peak, out))
            print(f"{tag}exit {code} wall_s {wall:.3f} peak_mb {peak:.2f}")
    if k >= 2:
        for tag, rows in runs.items():
            walls, peaks, _ = zip(*rows)
            print(f"{tag}median wall_s {statistics.median(walls):.3f} "
                  f"peak_mb {statistics.median(peaks):.2f}")
    if against:
        wins = sum(b[0] < a[0] for a, b in zip(runs["A "], runs["B "]))
        print(f"B faster in {wins} of {k} pairs")
        same = sum(a[2] == b[2] for a, b in zip(runs["A "], runs["B "]))
        print(f"stdout identical in {same} of {k} pairs")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
