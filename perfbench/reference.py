"""Measures how fast the CPU runs while a child runs on it.

The machine this benchmark was written on is shared. One process there runs
up to half again as slow as usual in bursts of a second or two, each CPU on
its own, and the share of slow time drifts over minutes: the same glmn run
took 6.6 to 10.8 s. CPU time grows with the wall time in a slow burst, so
it is not steadier.

So run.py keeps the benchmark and every child on one CPU and, while a child
runs, a thread of the parent times a fixed piece of work (``burst``) every
PERIOD_S seconds on that CPU. It measures the burst in thread CPU time, which
leaves out the child's slices of the CPU. The mean burst over NOMINAL_S is
the factor by which the CPU ran slower than nominal during the child, and the
child's times are divided by it.

The burst does not touch glmn, so no change to glmn can change it. It is
interpreter-bound (small loops, list indexing, table lookups and integer
arithmetic mod p), as most of glmn's time is.
"""

import threading
import time

# Roughly the thread CPU seconds of one burst on the 2-CPU x86-64 machine
# this benchmark was written on, when its CPU was not contended. A constant:
# it sets the scale of the normalised times, and must stay the same for runs
# that are compared.
NOMINAL_S = 0.002
ROUNDS = 100
PERIOD_S = 0.1

_P = 5
_MUL = [[(a * b) % _P for b in range(_P)] for a in range(_P)]
_ROWS = [[(3 * i + j) % _P for j in range(16)] for i in range(16)]


def _work(rounds):
    acc = 0
    for _ in range(rounds):
        other = _ROWS[acc % 16]
        for row in _ROWS:
            s = 0
            for x, y in zip(row, other):
                s += _MUL[x][y]
            acc = (acc + s) % 1009
    return acc


def burst():
    """Thread CPU seconds of one fixed piece of work."""
    start = time.thread_time()
    _work(ROUNDS)
    return time.thread_time() - start


class Probe:
    """Times a burst every PERIOD_S seconds in a thread until stopped."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while True:
            self.samples.append(burst())
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def slowdown(self):
        """Mean burst over NOMINAL_S: how much slower than nominal the CPU
        ran while the probe was running."""
        return sum(self.samples) / len(self.samples) / NOMINAL_S
