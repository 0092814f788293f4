import concurrent.futures

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """Puts a stand-in for ProcessPoolExecutor under the engine; lists the pool sizes asked for."""
    sizes = []

    class RecordingPool:
        """Records its size and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes
