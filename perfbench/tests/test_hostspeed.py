"""The host speed factor: a finite positive ratio, measured without leaving the process pinned."""

import math
import os

import hostspeed


def test_timed_returns_the_result_and_a_factor_and_restores_affinity():
    cpus = os.sched_getaffinity(0)
    result, factor = hostspeed.timed(lambda: 42)
    assert result == 42
    assert math.isfinite(factor) and factor > 0
    # a command spawned next inherits this affinity; it must not stay pinned to one CPU
    assert os.sched_getaffinity(0) == cpus
