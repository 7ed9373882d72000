import concurrent.futures

import pytest

from coinvariant import parallel


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
