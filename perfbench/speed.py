"""Machine-speed reference: a fixed loop timed beside the workload.

Shared machines change speed by tens of percent for seconds to minutes at
a time, because of other tenants, and a slow phase can cover a whole run.
The benchmark times this loop before the first cell of a pass and after
every cell, and scales the pass's times by ``REFERENCE_S`` over the
loop's mean duration.  Reported times are therefore seconds on a machine
that runs the loop in ``REFERENCE_S``.  The loop is benchmark code, not
library code, so a change to the library cannot move it.

Contention slows kinds of work unequally, so the loop mixes the three
kinds the library does, in about equal time: interpreter arithmetic, many
small numpy calls (a lock-step round), and gathers from an array far
larger than the L2 cache (the uniform-stream buffers).  On a two-core
x86-64 box the mix tracks the workloads' slowdowns with a log-log slope
near 1; any one part alone tracks with slopes from 0.7 to 1.5.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: The loop's duration on a quiet two-core x86-64 box (Xeon, Python 3.11).
REFERENCE_S = 0.0035


class Reference:
    """The reference loop and the buffers it reads."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._mid = rng.random(20_000)
        self._big = rng.random(2_000_000)  # 16 MB
        self._big_idx = rng.integers(0, self._big.size, 150_000)
        self._small_idx = rng.integers(0, 1_000, 64)

    def time(self) -> float:
        np = self._np
        t0 = perf_counter()
        s = 0
        for i in range(10_000):
            s += i * i
        np.sort(np.cumsum(self._mid))
        x = self._big[:64]
        for _ in range(300):
            y = (x * 4.0).astype(np.int64)
            np.minimum(y, 3, out=y)
            (self._small_idx[y] > 5).any()
        for _ in range(2):
            self._big[self._big_idx].sum()
        return perf_counter() - t0

    def speed(self, samples: int = 9) -> float:
        """Scale factor from this machine's current speed to the reference."""
        return REFERENCE_S / statistics.median(self.time() for _ in range(samples))
