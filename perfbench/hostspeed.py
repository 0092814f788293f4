"""Host speed factor: a fixed reference loop, timed just before and after each command.

The benchmark was sized on a 2-vCPU virtual machine on a shared host whose
CPU speed changes while the benchmark's own load stays the same.  Each vCPU
flips, about once a second, between a fast state and one ~40% slower, and
the share of slow time changes over minutes: a fixed loop took 14 ms in
some 10-second windows and 24 ms in others.  The wall time of one `ucal
run` command swung with it (2.2 to 3.9 s), and the median command time of
one run spread by 10-20% of it across runs.

So the benchmark runs this loop for ``SLOT_S`` seconds in its own process
right before and right after every command it times.  The factor of a
command is ``mean loop time / REFERENCE_S``, and a run divides its mean
times by the mean factor of its commands, raised to ``ELASTICITY``.  The
loop calls no `ucal` code, so a change to the package cannot move it: the
divided time moves with the program (a command 10% faster reads 10% less),
while a slower host slows both.  The loop mixes Python arithmetic
with calls into small NumPy operations, as the game loop does; a pure-Python
loop tracked the commands worse (correlation with their wall time 0.44,
against 0.74 for this one).  Over ten minutes of `ucal run` commands, the
spread of 40-second means was 0.17 of their median as measured, 0.055
divided by the factor and 0.062 divided by factor**ELASTICITY.
"""

from __future__ import annotations

import os
import time

import numpy as np

SLOT_S = 0.2
# How far a command's time moves with the factor: the log-log regression slope
# of command wall time on the factor was 0.54-0.86 in five sessions of 30-40
# commands on a noisy host.  The factor carries noise of its own, so dividing
# by all of it over-corrects: over five-run sets, the spread of the run means
# was 0.035-0.075 of their median divided by factor**0.7, 0.028-0.099 divided
# by the factor, and 0.047-0.24 as measured.
ELASTICITY = 0.7
# Mean time of one reference_loop() on the 2-vCPU Xeon VM the benchmark was
# sized on.  It only sets the scale, so that divided times read as seconds.
REFERENCE_S = 0.0052


def reference_loop():
    """A fixed mix of Python arithmetic, dict updates and small NumPy calls; its wall time."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    totals, acc = np.zeros(5), 0.0
    for i in range(1000):
        totals += rng.random(5)
        acc += (i * 7 % 13) * 0.5 + totals[int(np.argmax(totals))]
    counts = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - t0


def _slot():
    """Mean loop time over SLOT_S seconds, split evenly over the CPUs this process may use.

    Each vCPU of the host flips between speeds on its own, and a command may
    run on any of them (or, with trial workers, on all), so the slot visits
    each in turn and then restores this process's affinity, which a spawned
    command inherits.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            end = time.perf_counter() + SLOT_S / len(cpus)
            while not times or time.perf_counter() < end:
                times.append(reference_loop())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def at_reference(seconds, factor):
    """A time measured at host speed ``factor``, taken to the reference speed."""
    return seconds / factor ** ELASTICITY


def timed(run):
    """Call ``run()`` between two slots of the reference loop; (its result, the speed factor)."""
    before = _slot()
    result = run()
    after = _slot()
    return result, (before + after) / 2 / REFERENCE_S
