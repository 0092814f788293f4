import concurrent.futures

import pytest


@pytest.fixture
def pool_log(monkeypatch):
    """Puts a stand-in for ProcessPoolExecutor under the engine; logs its sizes and tasks.

    ``sizes`` lists the pool sizes asked for, and ``tasks`` the number of tasks
    each ``map`` call hands the pool.
    """
    log = {"sizes": [], "tasks": []}

    class RecordingPool:
        """Records its size and its tasks, and maps in this process."""

        def __init__(self, max_workers):
            log["sizes"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            tasks = list(zip(*iterables))
            log["tasks"].append(len(tasks))
            return (fn(*task) for task in tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return log


@pytest.fixture
def pool_sizes(pool_log):
    """The pool sizes asked for, under ``pool_log``'s stand-in pool."""
    return pool_log["sizes"]
