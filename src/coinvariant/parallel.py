"""Deterministic work-pool helper.

Results always come back in submission order, so output never depends on
the scheduling of workers.  A pool has min(jobs, items, CPU count)
workers (one beyond the CPU count adds no CPU), sent one item at a time,
and the map runs inline when that is one: at ``jobs=1``, for at most one
item (a Springer sweep whose tables are all cached), or on one CPU.
``multiprocessing`` and the process pool are imported only on the fork
path, so a run that never forks does not load them.  Workers are forked,
so process-wide memo caches that are already warm carry over for free.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_jobs() -> int:
    return os.cpu_count() or 1


def parallel_map(fn: Callable[[T], R], items: Sequence[T], jobs: int) -> list[R]:
    """Order-preserving map over min(jobs, len(items), ``default_jobs()``)
    forked workers, inline when that is at most one."""
    workers = min(jobs, len(items), default_jobs())
    if workers <= 1:
        return [fn(item) for item in items]
    # imported here so that runs which never fork skip their import cost
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        context = multiprocessing.get_context()
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(fn, items))
