"""Wall time and peak RSS of `python -m ivtskit ARGS...`, launched K times.

    PYTHONPATH=src python tools/stage_peak.py K classify --data c1.csv --feature-mode flatten ...

A child's wait4 peak counts the RSS it inherits at spawn, so this launcher
imports no numpy: its own ~13 MB stays below every stage's.  The child's
stdout is dropped; each launch prints its exit code, wall and peak RSS, and
for K >= 2 a last line prints the median wall and peak of the K launches.
Exits 1 when any launch fails.
"""

import os
import statistics
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 2 or not argv[0].isdigit():
        print("usage: stage_peak.py K ARGS...", file=sys.stderr)
        return 2
    failed, walls, peaks = False, [], []
    for _ in range(int(argv[0])):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ivtskit", *argv[1:]],
                                stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        failed = failed or proc.returncode != 0
        walls.append(wall)
        peaks.append(usage.ru_maxrss / 1024)
        print(f"exit {proc.returncode} wall_s {wall:.3f} peak_mb {peaks[-1]:.2f}")
    if len(walls) >= 2:
        print(f"median wall_s {statistics.median(walls):.3f} "
              f"peak_mb {statistics.median(peaks):.2f}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
