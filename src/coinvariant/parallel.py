"""Deterministic work-pool helper.

Results always come back in submission order, so output never depends on
the scheduling of workers or on how the items are sent to them in
contiguous chunks; ``jobs=1`` or at most one item runs inline, so a
Springer sweep whose tables are all cached starts no pool, and no pool
has more workers than the CPU count: a worker beyond it adds no CPU.
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
    """Order-preserving map; inline when jobs <= 1 or there is at most one item,
    otherwise over at most ``default_jobs()`` forked workers."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here so that runs which never fork skip their import cost
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        context = multiprocessing.get_context()
    workers = min(jobs, len(items), default_jobs())
    # about eight chunks per worker: fewer round trips for many cheap
    # items, while the last chunk to finish stays small; the Springer
    # sweep's few items (one per n, largest first) go one at a time
    chunksize = max(1, len(items) // (8 * workers))
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))
