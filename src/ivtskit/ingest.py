"""Raw readings to daily intervals: the parsing and grouping behind `ivtskit ingest`.

The input is a UTF-8 csv file with a `series_id,dim,timestamp,value,label`
header and one reading per record.  It is read in blocks into columns of
int32 codes and float64 values, so no Python object is kept per reading, and
the (series, day, dim) cells are grouped with one stable sort.  Errors in
the input raise ValueError naming `path:record`.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from datetime import datetime
from typing import NamedTuple

import numpy as np

RAW_HEADER = ["series_id", "dim", "timestamp", "value", "label"]
# Characters of raw text read per block; a block is completed to the end of a
# line, so it holds whole csv records (about 1500 on typical sensor rows).
BLOCK_CHARS = 1 << 16
_KEY_MAX = np.iinfo(np.int64).max  # largest (series, day, dim) key


def _raw_blocks(fh):
    """The csv records after the header, one block at a time, as the number
    of records, the indices of the records kept, their five field columns,
    and the index of the first record whose field count is not 5 (or None).

    Blank and whitespace-only records are not kept, nor is any record from
    the first one with a wrong field count on.  A block that holds no quote
    and no carriage return is split with `str.split`, which is what
    `csv.reader` does with such text.  From the first block that does,
    `csv.reader` reads the rest of the file, because a quoted field may run
    past the end of a block.
    """
    while text := fh.read(BLOCK_CHARS):
        text += fh.readline()
        if '"' in text or "\r" in text or len(text) > csv.field_size_limit():
            reader = csv.reader(itertools.chain(io.StringIO(text, newline=""), fh))
            while rows := list(itertools.islice(reader, 4096)):
                yield _block(rows)
            return
        if not text.endswith("\n"):
            text += "\n"
        n = text.count("\n")
        # each record becomes its fields and a "\n" marker: the records all
        # have five fields when every sixth piece is a marker
        pieces = text.replace("\n", ",\n,").split(",")
        if len(pieces) == 6 * n + 1 and pieces[5::6].count("\n") == n:
            yield n, range(n), [pieces[k : 6 * n : 6] for k in range(5)], None
        else:
            yield _block([line.split(",") for line in text[:-1].split("\n")])


def _block(rows: list[list[str]]):
    """`_raw_blocks`' tuple for a list of csv records."""
    keep, bad = [], None
    for i, row in enumerate(rows):
        if len(row) == 5:
            keep.append(i)
        elif row and (len(row) > 1 or row[0].strip()):
            bad = i
            break
    return len(rows), keep, list(zip(*(rows[i] for i in keep))), bad


class _Codes(dict):
    """Raw field text -> int code; texts that strip to the same text share a
    code.  ``texts`` holds the stripped text of each code, ``codes`` the
    code of each stripped text."""

    def __init__(self) -> None:
        super().__init__()
        self.codes: dict[str, int] = {}
        self.texts: list[str] = []

    def __missing__(self, raw: str) -> int:
        text = raw.strip()
        code = self.codes.get(text)
        if code is None:
            code = self.codes[text] = len(self.texts)
            self.texts.append(text)
        self[raw] = code
        return code

    def encode(self, texts) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, texts), np.int32, len(texts))

    def sorted_codes(self) -> tuple[list[str], np.ndarray]:
        """The stripped texts in sorted order, and their codes in that order."""
        texts = sorted(self.texts)
        return texts, np.array([self.codes[t] for t in texts], dtype=np.int64)


def _ranks(codes_in_order: np.ndarray) -> np.ndarray:
    """Rank of each code, given the codes in rank order."""
    rank = np.empty_like(codes_in_order)
    rank[codes_in_order] = np.arange(len(codes_in_order))
    return rank


def _first_bad_value(texts) -> tuple[int, str] | None:
    """Index and message of the first value text that is not a finite float."""
    for i, text in enumerate(texts):
        text = text.strip()
        try:
            v = float(text)
        except ValueError:
            return i, f"bad value {text!r}"
        if not math.isfinite(v):
            return i, f"non-finite value {text!r}"
    return None


class _RawReadings:
    """Raw readings as columns of codes and values, checked and added one
    block of csv records at a time; no Python object is kept per reading."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.sids, self.dims, self.stamps, self.labels = _Codes(), _Codes(), _Codes(), _Codes()
        self.days: list = []  # the date of each stamp code
        self.sid_label = np.empty(0, dtype=np.int32)  # label code of each series code
        # (sid, dim, stamp, value) columns; the blocks' small arrays are merged
        # into one chunk every 64 blocks, so their memory is reused
        self.blocks: list[tuple[np.ndarray, ...]] = []
        self.chunks: list[tuple[np.ndarray, ...]] = []
        self.lineno = 2  # csv record number of the next record; the header is 1

    def add(self, n: int, keep, columns, bad) -> None:
        """Check and add one block from `_raw_blocks`.  The first faulty
        record raises; within a record the checks run in the order field
        count, timestamp, value, label."""
        first, self.lineno = self.lineno, self.lineno + n
        errors = [] if bad is None else [(bad, 0, "expected 5 fields")]  # (record, check, message)
        if keep:
            sid_t, dim_t, stamp_t, value_t, label_t = columns
            sid, dim = self.sids.encode(sid_t), self.dims.encode(dim_t)
            stamp, label = self.stamps.encode(stamp_t), self.labels.encode(label_t)
            for code, text in enumerate(self.stamps.texts[len(self.days):], start=len(self.days)):
                try:
                    self.days.append(datetime.fromisoformat(text).date())
                except ValueError:
                    i = int(np.flatnonzero(stamp == code)[0])
                    errors.append((keep[i], 1, f"bad ISO timestamp {text!r}"))
                    self.days.append(None)
            try:
                value = np.fromiter(map(float, value_t), np.float64, len(value_t))
                bad_value = None if np.isfinite(value).all() else _first_bad_value(value_t)
            except ValueError:  # a bad value, or a character str.strip() drops and float() does not
                bad_value = _first_bad_value(value_t)
                if bad_value is None:
                    value = np.fromiter(map(float, map(str.strip, value_t)), np.float64,
                                        len(value_t))
            if bad_value is not None:
                errors.append((keep[bad_value[0]], 2, bad_value[1]))
            # a series keeps the label of its first record
            self.sid_label = np.concatenate(
                (self.sid_label, np.full(len(self.sids.texts) - len(self.sid_label), -1, np.int32)))
            codes, at = np.unique(sid, return_index=True)
            new = self.sid_label[codes] < 0
            self.sid_label[codes[new]] = label[at[new]]
            conflict = np.flatnonzero(self.sid_label[sid] != label)
            if conflict.size:
                i = int(conflict[0])
                errors.append((keep[i], 3, f"series {sid_t[i].strip()!r} has conflicting labels"))
        if errors:
            i, _, message = min(errors)
            raise ValueError(f"{self.path}:{first + i}: {message}")
        if keep:
            self.blocks.append((sid, dim, stamp, value))
            if len(self.blocks) == 64:
                self._merge_blocks()

    def _merge_blocks(self) -> None:
        if self.blocks:
            self.chunks.append(tuple(np.concatenate(c) for c in zip(*self.blocks)))
            self.blocks.clear()

    def daily_cells(self):
        """Group the readings by (series, day, dim) with one stable sort.

        Returns the sorted series names and, per (series, day, dim) cell in
        that order, the series, day and dim ranks and the [min, max] as an
        (n_cells, 2) array.  Days are ranked by date, series and dims by
        their stripped text.  Of equal values the first in file order is
        kept, as Python's min and max do; numpy's reductions may keep the
        other of -0.0 and 0.0.
        """
        self._merge_blocks()
        sid_names, sid_codes = self.sids.sorted_codes()
        _, dim_codes = self.dims.sorted_codes()
        dates = sorted(set(self.days))
        date_rank = {d: i for i, d in enumerate(dates)}
        sid_rank, dim_rank = _ranks(sid_codes), _ranks(dim_codes)
        day_rank = np.array([date_rank[d] for d in self.days], dtype=np.int64)
        n_day, n_dim = len(dates), len(dim_codes)

        n = sum(len(c[3]) for c in self.chunks)
        key, dim, value = np.empty(n, np.int64), np.empty(n, np.int64), np.empty(n)
        end = n
        while self.chunks:  # fill from the back, freeing each chunk once copied
            c_sid, c_dim, c_stamp, c_value = self.chunks.pop()
            rows = slice(end - len(c_value), end)
            key[rows] = sid_rank[c_sid] * n_day + day_rank[c_stamp]
            dim[rows] = dim_rank[c_dim]
            value[rows] = c_value
            end = rows.start
        sd_values = None
        if len(sid_names) * n_day * n_dim > _KEY_MAX:
            sd_values, key = np.unique(key, return_inverse=True)  # dense (series, day) ranks
        key *= n_dim
        key += dim
        del dim

        order = np.argsort(key, kind="stable")
        key = key[order]
        value = value[order]
        del order
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        bounds = np.stack((np.minimum.reduceat(value, starts), np.maximum.reduceat(value, starts)),
                          axis=1)
        zeros = np.flatnonzero(value == 0)
        if zeros.size:
            cells, at = np.unique(np.searchsorted(starts, zeros, side="right") - 1,
                                  return_index=True)
            for col in bounds.T:
                tied = col[cells] == 0
                col[cells[tied]] = value[zeros[at[tied]]]
        sd, cell_dim = np.divmod(key[starts], n_dim)
        if sd_values is not None:
            sd = sd_values[sd]
        cell_sid, cell_day = np.divmod(sd, n_day)
        return sid_names, cell_sid, cell_day, cell_dim, bounds


class DailySeries(NamedTuple):
    """One series: its name and label, the days dropped because they lack a
    dimension the series has, and the (d, full days, 2) daily [min, max]."""

    name: str
    label: str
    dropped: int
    daily: np.ndarray


def daily_intervals(path) -> list[DailySeries]:
    """The series of the raw readings file at `path`, in sorted name order.

    Series, dims and labels are compared as stripped text, days by the date
    `datetime.fromisoformat` reads in the timestamp; a series keeps the label
    of its first record.  Raises OSError when the file cannot be read and
    ValueError for anything wrong in it: the first faulty record in file
    order is named.
    """
    raw = _RawReadings(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            if header is None or [h.strip() for h in header] != RAW_HEADER:
                raise ValueError(f"{path}: expected header {','.join(RAW_HEADER)}")
            for block in _raw_blocks(fh):
                raw.add(*block)
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text ({e.reason})") from None
    if not raw.blocks and not raw.chunks:
        raise ValueError(f"{path}: no data rows")
    sid_names, cell_sid, cell_day, cell_dim, daily = raw.daily_cells()

    # a day is full when it has every dimension its series has
    n_dim = len(raw.dims.texts)
    day_start = np.flatnonzero(np.concatenate(
        ([True], (cell_sid[1:] != cell_sid[:-1]) | (cell_day[1:] != cell_day[:-1]))))
    day_dims = np.diff(np.append(day_start, len(cell_sid)))
    sid_dims = np.bincount(np.unique(cell_sid * n_dim + cell_dim) // n_dim,
                           minlength=len(sid_names))
    full = day_dims == sid_dims[cell_sid[day_start]]
    full_cell = np.repeat(full, day_dims)
    sid_day = np.searchsorted(cell_sid[day_start], np.arange(len(sid_names) + 1))
    sid_cell = np.append(day_start, len(cell_sid))[sid_day]

    series = []
    for s, name in enumerate(sid_names):
        cells = slice(sid_cell[s], sid_cell[s + 1])
        series.append(DailySeries(
            name,
            raw.labels.texts[raw.sid_label[raw.sids.codes[name]]],
            int(sid_day[s + 1] - sid_day[s] - full[sid_day[s]:sid_day[s + 1]].sum()),
            daily[cells][full_cell[cells]].reshape(-1, int(sid_dims[s]), 2).transpose(1, 0, 2),
        ))
    return series
