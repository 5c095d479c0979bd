"""The host's current speed, read from a fixed piece of reference work.

The benchmark host shares its cores with other tenants and runs at two
speeds, the slow one 1.5-1.8 times slower, in spells of seconds to
minutes.  A run that falls in a slow spell reads slow whatever the
statistic.  So the worker times this reference work every few tenths of a
second while the pipeline runs, outside the timed units, and scales each
unit by how fast the reference ran around it:

    normalized = raw * REFERENCE_MS / (reference time around the unit)

That is the unit's time at the host's fast speed.  The reference is a
mix of what the pipeline spends its time on -- small numpy kernels, a
row gather and an unbuffered scatter, interpreted Python -- on fixed
inputs.  It imports nothing from the library, so a change there never
moves it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

# The reference time on the host the benchmark was written on (2-vCPU
# Xeon KVM guest, one BLAS thread), in its fast spells.  It only sets the
# scale of the normalized figures; a different host reads in its own ms.
REFERENCE_MS = 2.4
PROBE_EVERY_S = 0.3       # least time between two readings
REPEATS = 3               # a reading is the fastest of this many runs of the work
WINDOW_S = 0.5            # readings this close to a unit count for it

_rng = np.random.default_rng(20241125)
_X = _rng.standard_normal((192, 32)).astype(np.float32)
_W = _rng.standard_normal((32, 32)).astype(np.float32)
_TABLE = _rng.standard_normal((20000, 8)).astype(np.float32)
_IDX = _rng.integers(0, 20000, size=16000)


def reference_work() -> float:
    """One pass of the fixed reference work; returns a checksum."""
    h = _X
    for _ in range(15):
        h = np.maximum(h @ _W, 0.0)
        h = h - h.max(axis=1, keepdims=True)
        e = np.exp(h)
        h = e / e.sum(axis=1, keepdims=True)
    rows = _TABLE[_IDX]
    out = np.zeros_like(_TABLE)
    np.add.at(out, _IDX, rows)
    acc = 0
    for i in range(4000):
        acc = (acc * 31 + i) % 1_000_003
    return float(h[0, 0]) + float(out[0, 0]) + acc


class HostSpeed:
    """Timed readings of the reference work, and the scale they give a unit."""

    def __init__(self):
        self.times = []          # midpoint of each reading, in perf_counter time
        self.ms = []             # the reading: the fastest repeat, in ms
        self._starts = []        # start and end of each reading; flat lists of
        self._ends = []          # floats, so reading allocates no container

    def read(self) -> None:
        # With the collector paused, the reading's short-lived objects come
        # and go without triggering a collection, so the pipeline's
        # collections -- and its peak memory -- fall where they would
        # without the readings.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        best = float("inf")
        for _ in range(REPEATS):
            t = time.perf_counter()
            reference_work()
            best = min(best, time.perf_counter() - t)
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.times.append((start + end) / 2)
        self.ms.append(1e3 * best)
        self._starts.append(start)
        self._ends.append(end)

    def read_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.read()

    def spans_within(self, start, end) -> list:
        """Wall time of each reading taken between ``start`` and ``end``."""
        return [e - s for s, e in zip(self._starts, self._ends) if s >= start and e <= end]

    def scale(self, start, end) -> float:
        """REFERENCE_MS over the mean reading within WINDOW_S of [start, end].

        Without a reading that close, the nearest one counts.
        """
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.ms[lo:hi]
        if not near:
            mid = (start + end) / 2
            i = min(range(len(self.times)), key=lambda j: abs(self.times[j] - mid))
            near = [self.ms[i]]
        return REFERENCE_MS / statistics.fmean(near)
