"""Calibration against a fixed reference, for a host whose speed drifts.

The benchmark runs on a few cores of a shared host.  Other tenants' load on
the same physical cores slows every instruction of this process, by up to
about 1.7x, in spells that last from a second to minutes; CPU time tracks wall
time through them, so no timer avoids them.  Two runs of the same code a few
minutes apart then differ by more than any bound a regression check could use.

So the harness runs a fixed pure-Python reference (:func:`chunk`) while every
timed operation runs: a timer signal runs it every ``PERIOD_S`` seconds inside
the operation, and it runs for ``EDGE_S`` right before and right after.  The
operation's own time (the reference's time taken out) is reported scaled by
``REFERENCE_S / mean reference time``: the time the operation would have
taken had the host run the reference at its nominal speed.  The reference is
the benchmark's own code, so a change to radiotree moves the scaled time as it
moves the measured one.  The unscaled times are printed on the info line.

The reference only computes, on a handful of objects.  A reference that also
read a table larger than the L2 cache tracked the host no better: inside an
operation it and radiotree evict each other's cache lines, which adds noise of
its own.
"""

from __future__ import annotations

import signal
import time

# The reference's time on a quiet 2-core Intel Xeon VM (2.1 GHz, Python
# 3.11.7).  A fixed constant: it sets the scale of the reported times, not
# their spread.
REFERENCE_S = 0.001
CHUNK_STEPS = 5000
# One chunk (about 1 ms) every 20 ms inside an operation, and 10 ms of chunks
# on each side of it, so that operations shorter than a period are scaled too.
PERIOD_S = 0.02
EDGE_S = 0.01


def chunk() -> float:
    """Run the reference once; return its seconds."""
    t0 = time.perf_counter()
    k, s = 1, 0
    for i in range(CHUNK_STEPS):
        k = (k * 1103515245 + 12345) & 0x7FFFFFFF
        s += (k & 0xFF) + i * i % 7
    return time.perf_counter() - t0


def edge() -> list:
    """Run the reference for ``EDGE_S``; return the chunks' seconds."""
    times = [chunk()]
    while sum(times) < EDGE_S:
        times.append(chunk())
    return times


def scale(own_s: float, times: list) -> float:
    """``own_s`` scaled by reference chunk times ``times`` taken over it."""
    return own_s * REFERENCE_S * len(times) / sum(times)


class Interleaved:
    """Times its body with the reference run around and inside it.

    After the body, ``inside_s`` is the reference's time inside it, ``own_s``
    the body's time with that taken out, and ``scaled_s`` is ``own_s`` scaled
    by the reference.
    """

    def __enter__(self):
        self.times = edge()
        self._inside = []
        self._running = False
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        # A tick counts only between the two clock readings, so that its
        # time is either inside both elapsed and _inside or in neither.
        self._t0 = time.perf_counter()
        self._running = True
        return self

    def _tick(self, signum, frame):
        if self._running:
            self._inside.append(chunk())

    def __exit__(self, *exc):
        self._running = False
        elapsed = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.times += self._inside + edge()
        self.inside_s = sum(self._inside)
        self.own_s = elapsed - self.inside_s
        self.scaled_s = scale(self.own_s, self.times)
        return False
