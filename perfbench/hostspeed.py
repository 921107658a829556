"""Host-speed probe, so that timings from a shared host compare across runs.

On a shared 2-core host the speed of one core drifts by 20% or more over
tens of seconds, far more than the changes the benchmark must resolve.  The
timed phase therefore runs a fixed piece of exact arithmetic, which never
changes, before its first call and then between calls every PROBE_EVERY_S
seconds.  Each stretch of calls between two probe batches is rescaled by
REF_PROBE_S over the mean probe time of those two batches: the figures are
the ones a host running the probe in REF_PROBE_S would have measured.  The
probes themselves are not counted in any timing.
"""
from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

PROBE_EVERY_S = 0.5
PROBE_REPEATS = 3

# seconds of one probe on the host the benchmark was written on, in a calm
# phase; only a scale, it cancels out of every comparison between runs
REF_PROBE_S = 0.005


def probe_once() -> int:
    """Row-reduce a fixed 10x12 rational matrix, then a fixed dict workload:
    the operation mix of the oracle's hot path."""
    n = 10
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n + 2)]
         for i in range(n)]
    r = 0
    for c in range(n + 2):
        piv = next((i for i in range(r, n) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(n):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    acc: dict = {}
    for k in range(3000):
        key = (k % 97, k % 13)
        acc[key] = (acc.get(key, 0) + k * k) % 10007
    return r + len(acc)


class HostClock:
    """Probe batches taken between calls, and the stretch each call fell in."""

    def __init__(self):
        self.probe_s: list[float] = []   # per batch: median seconds of one probe
        self._last = 0.0

    def probe(self) -> None:
        times = []
        for _ in range(PROBE_REPEATS):
            t = perf_counter()
            probe_once()
            times.append(perf_counter() - t)
        self.probe_s.append(statistics.median(times))
        self._last = perf_counter()

    def stretch(self) -> int:
        """Probe when due; return the index of the stretch the next call is in."""
        if not self.probe_s or perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()
        return len(self.probe_s) - 1

    def scales(self) -> list[float]:
        """Per stretch, REF_PROBE_S over the mean probe time around it.  Call
        after a closing probe, so that every stretch has two batches."""
        return [2 * REF_PROBE_S / (a + b) for a, b in zip(self.probe_s, self.probe_s[1:])]
