import concurrent.futures
import os

import pytest

from coinvariant import memo, parallel


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty process memo for this test; clear it to make the next run
    use the tables its store reads instead of ones held from earlier."""
    tables = {}
    monkeypatch.setattr(memo, "_TABLES", tables)
    return tables


@pytest.fixture
def pool_builds(monkeypatch):
    """A list that gains one item per ProcessPoolExecutor built."""
    builds = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            builds.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    # also counted if parallel ever binds the name at import time again
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool, raising=False)
    return builds


@pytest.fixture
def fake_pool(monkeypatch):
    """A host of 3 CPUs whose ProcessPoolExecutor starts no process: it
    records its ``max_workers`` and maps in the calling process."""
    requested = []

    class RecordingPool:
        def __init__(self, max_workers=None, mp_context=None):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    return requested
