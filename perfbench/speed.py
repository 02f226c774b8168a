"""The machine's speed during a timed run, from a fixed reference kernel.

On a shared host one core's speed drifts by tens of percent within seconds,
as the load of other tenants comes and goes; raw wall times of the same
code then differ by a quarter from run to run.  A timed run therefore runs
a reference kernel before every operation and every set-up, and scales each
measured time by REFERENCE_S over the kernel's local time (the median of the
kernel times within WINDOW samples either side).  The reported times are
seconds at the reference speed: the speed at which the kernel takes
REFERENCE_S.

The kernel is pure Python and uses no code of the package: small-integer
loops, dict and list work, fractions and a few big-integer products, the
mix the package's own hot paths are made of.  It runs twice, warm and with
the garbage collector off, so neither the package's heap nor the caches it
left cold change the kernel's time; only the second run is timed.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.003     # the kernel's time at the reference speed
WINDOW = 10             # kernel samples either side that set a local speed

_BIG = 3 ** 2000


def _kernel() -> int:
    acc = 0
    for k in range(1, 12):
        acc ^= (_BIG * (_BIG >> (8 * k)) + k) // (_BIG // (k + 3) + 7)
    den = 0
    for start in (1, 151):
        f = Fraction(0)
        for k in range(start, start + 150):
            f += Fraction(k * 1000003, k * k * 999331 + 1)
        den ^= f.denominator
    counts: dict[int, int] = {}
    pairs = []
    for k in range(4500):
        counts[k % 97] = counts.get(k % 97, 0) + k
        pairs.append((k, k * k))
    pairs.sort(key=lambda p: -p[1])
    return acc ^ den ^ len(counts) ^ pairs[0][0]


def kernel_seconds() -> float:
    """Wall time of one warm run of the kernel, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """Kernel times taken through a run, in order."""

    def __init__(self):
        self.samples: list[float] = []

    def mark(self) -> int:
        """Time the kernel now; returns the sample's position for `scale`."""
        self.samples.append(kernel_seconds())
        return len(self.samples) - 1

    def scale(self, pos: int) -> float:
        """Factor that turns seconds measured next to sample `pos` into
        seconds at the reference speed."""
        local = self.samples[max(0, pos - WINDOW):pos + WINDOW + 1]
        return REFERENCE_S / statistics.median(local)

    def median_s(self) -> float:
        return statistics.median(self.samples)
