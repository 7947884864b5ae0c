"""The one thread pool: an order-preserving map over independent work units."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def worker_count(threads: int | None, units: int) -> int:
    """Workers for `units` independent jobs: at most `threads`, at most one
    per job, and at least one."""
    return max(1, min(threads or 1, units))


def parallel_map(fn: Callable[[T], R], items: Iterable[T], threads: int | None) -> list[R]:
    """``[fn(x) for x in items]``, run on up to `threads` threads.

    Results come back in input order whatever the thread count, so output
    built from them is identical for every thread count.
    """
    items = list(items)
    workers = worker_count(threads, len(items))
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
