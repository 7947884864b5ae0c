"""Raw sensor readings for the `ingest` command, made by the benchmark itself.

Each series is one station with `dims` sensors read `per_day` times a day.
The class of a station sets the seasonal level, amplitude and noise of its
sensors, so the windows `ingest` cuts are separable but not trivially so.
Values are scaled so that day-to-day interval distances are of the order of
the default recurrence threshold (pi/18), which makes the images non-trivial.

About 1% of the (series, day, dim) cells carry no readings.  Each series
gets `missing` such cells on distinct days, and `missing` spare days are
appended, so every series keeps exactly `days` complete days: `ingest`
drops `missing` days per series and still cuts `days // window` windows.
"""

from __future__ import annotations

import datetime as dt
import math

import numpy as np

LABELS = ("alpine", "coastal", "desert", "tundra")
START = dt.date(2021, 1, 1)


def missing_per_series(days: int, dims: int) -> int:
    """Missing cells per series: about 1% of its cells, at least one."""
    return max(1, round(0.01 * days * dims))


def write_raw_readings(path, seed: int, series: int, dims: int, days: int,
                       per_day: int) -> int:
    """Write `series_id,dim,timestamp,value,label` rows; return how many."""
    rng = np.random.default_rng([seed, 0x5EED])
    missing = missing_per_series(days, dims)
    total_days = days + missing
    n_cls = len(LABELS)
    cls = np.arange(series) % n_cls
    level = rng.normal(0.0, 0.5, (n_cls, dims))
    amp = rng.uniform(0.05, 0.5, (n_cls, dims))
    day_noise = rng.uniform(0.02, 0.12, (n_cls, dims))
    reading_noise = rng.uniform(0.02, 0.08, (n_cls, dims))
    phase = rng.uniform(0.0, 2 * math.pi, series)
    t = np.arange(total_days)
    season = np.sin(2 * math.pi * t[None, :] / 365.0 + phase[:, None])
    base = (level[cls][:, None, :] + amp[cls][:, None, :] * season[:, :, None]
            + day_noise[cls][:, None, :] * rng.standard_normal((series, total_days, dims)))
    values = base[..., None] + reading_noise[cls][:, None, :, None] * rng.standard_normal(
        (series, total_days, dims, per_day))

    absent = np.zeros((series, total_days, dims), dtype=bool)
    for s in range(series):
        gone = rng.choice(total_days, size=missing, replace=False)
        absent[s, gone, rng.integers(0, dims, size=missing)] = True

    hours = [24 * r // per_day for r in range(per_day)]
    stamps = [[f"{(START + dt.timedelta(days=int(d))).isoformat()}T{h:02d}:00:00"
               for h in hours] for d in range(total_days)]
    rows = 0
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("series_id,dim,timestamp,value,label\n")
        for s in range(series):
            sid, label = f"st{s:04d}", LABELS[cls[s]]
            lines = []
            for d in range(total_days):
                for j in range(dims):
                    if absent[s, d, j]:
                        continue
                    lines.extend(f"{sid},x{j},{stamp},{v:.4f},{label}"
                                 for stamp, v in zip(stamps[d], values[s, d, j].tolist()))
            rows += len(lines)
            fh.write("\n".join(lines) + "\n")
    return rows
