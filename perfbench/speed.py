"""CPU-speed calibration for the benchmark's timings.

The shared hosts this benchmark runs on change their effective CPU speed by
up to 40% within a minute (a fixed pure-Python loop, timed in 5-s windows,
ran 32 to 46 times per second on a 2-vCPU x86-64 VM; process CPU time moved
with it, so it is not time stolen from the process).  Wall-clock times taken
minutes apart therefore differ more than most changes to the program would.

The workers time a fixed piece of pure-Python work, ``reference()``, between
ops every ``EVERY`` seconds, and scale each op's wall time by
``NOMINAL_S / reference time`` measured around it.  Scaled times read as
milliseconds on a host where ``reference()`` takes ``NOMINAL_S``.  In a
two-minute test that timed repeated passes over a fixed principal-warm op
list, scaling cut the coefficient of variation of the pass times from 0.16
to 0.04.  ``reference()`` is independent of chowkit, so a change to the
program moves scaled times just as it moves wall times.
"""

from time import perf_counter

EVERY = 0.1          # seconds of ops between two calibrations
NOMINAL_S = 0.0008   # reference() time that scaled times are expressed at

_TABLE = tuple(range(97))
_MOD = 7 ** 300 + 1


def reference():
    """Fixed work: small-int arithmetic, table lookups and bigint products.

    Creates no container objects, so the garbage collector never runs inside
    it and its time does not depend on the size of the program's heap.
    """
    acc, big = 0, 3 ** 200
    for i in range(4000):
        acc = (acc * 31 + _TABLE[i % 97]) % 1000003
        if i % 50 == 0:
            big = big * big % _MOD
    return acc ^ (big & 1)


def calibrate():
    """Seconds one reference() takes now: the faster of two, since an
    interruption can only make one slower."""
    best = None
    for _ in range(2):
        t0 = perf_counter()
        reference()
        t = perf_counter() - t0
        best = t if best is None else min(best, t)
    return best


def scale(wall_s, ref_s):
    """Wall time scaled to the nominal reference speed."""
    return wall_s * NOMINAL_S / ref_s
