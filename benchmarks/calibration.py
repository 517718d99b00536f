"""Machine-speed calibration for the benchmark's timings.

The measuring machine is shared: its speed drifts by tens of percent over
seconds to minutes as other tenants come and go, and a drift that large
hides any program change.  A fixed calibration kernel (pure-Python dict
work plus dense complex linear algebra, the two kinds of work the program
does) runs in the benchmark process between tasks.  Each timing is scaled
by ``REFERENCE_S / c``, with ``c`` the mean of the kernel times measured
just before and just after it, so a timing reads in seconds at the machine
speed where the kernel takes ``REFERENCE_S``.  The kernel does not call the
program, so a program change moves calibrated times exactly as it moves
raw ones; raw times are recorded next to them.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: kernel time that defines the reference machine speed
REFERENCE_S = 0.060
#: calibrate again before a task when the last calibration is older than this
EVERY_S = 1.0
#: kernel samples this close to a timed interval enter its scale factor
WINDOW_S = 10.0

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((256, 256)) + 1j * _RNG.standard_normal((256, 256))
_H = _A + _A.conj().T


def kernel() -> float:
    """Seconds taken by the fixed calibration work."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(60000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    for _ in range(3):
        _A @ _A
    np.linalg.eigh(_H)
    return time.perf_counter() - start


class Calibrator:
    """Kernel times on a timeline, and the scale factor of an interval."""

    def __init__(self):
        self.stamps: list[float] = []
        self.values: list[float] = []

    def measure(self):
        value = kernel()
        self.stamps.append(time.perf_counter())
        self.values.append(value)

    def maybe(self):
        """Calibrate unless the last calibration is recent."""
        if not self.stamps or time.perf_counter() - self.stamps[-1] > EVERY_S:
            self.measure()

    def factor(self, start: float, end: float, window: float = WINDOW_S) -> float:
        """Scale factor for an interval: the median kernel time over the
        interval widened by ``window`` on each side, and at least over the
        two calibrations bracketing it."""
        before = bisect.bisect_right(self.stamps, start) - 1
        after = bisect.bisect_left(self.stamps, end)
        if before < 0 or after >= len(self.stamps):
            raise ValueError("interval is not bracketed by calibrations")
        lo = min(before, bisect.bisect_left(self.stamps, start - window))
        hi = max(after + 1, bisect.bisect_right(self.stamps, end + window))
        return REFERENCE_S / statistics.median(self.values[lo:hi])
