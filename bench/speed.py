"""How fast the machine runs right now, against a fixed reference.

On the shared 2-core virtual machine the benchmark was built on, the same
pass took over 70 % longer in one ten-minute stretch than in the next:
neighbours change the clock and the caches under the process, and raw wall
times of ten runs spread by up to 0.45 of their median. Fixed kernels timed
between passes slow down with the machine. Dividing a run's median pass time
by the kernels' median slowness gives seconds at the reference speed.

Two kernels cover the library's two kinds of work: Python object churn (dicts
of tuples, like state exploration) and numpy array arithmetic (like
uniformization and sampling). A time is divided by ``PYTHON_SHARE * python +
(1 - PYTHON_SHARE) * numpy``, the two kernels' median slownesses. One share
serves every workload and set-up; ``steady.py`` fits it from recorded runs as
the share that gives their times the smallest mean spread. The kernels run
with garbage collection off and allocate no arrays after start-up, so the
program's heap does not leak into them; a change to actkit moves the
normalised time as much as the wall time.
"""

from __future__ import annotations

import gc
import statistics
import time

# Seconds each kernel takes at the reference speed, on a 2-core Intel Xeon
# virtual machine with Python 3.11.7 and numpy 2.4.6; the two read alike
# when timed at the same moment there.
REF_PYTHON_S = 0.035
REF_NUMPY_S = 0.018
# Weight of the Python kernel against the numpy kernel, fitted by steady.py
# over recorded runs of every workload (see bench/README.md).
PYTHON_SHARE = 0.7
# Three arrays of this many doubles, 0.4 MB each, are all the probe adds to
# the process's peak resident memory.
ARRAY_LEN = 50_000


def _python_kernel() -> int:
    seen: dict[tuple, float] = {}
    for i in range(60_000):
        key = (i & 1, i & 2, i >> 3, i % 7)
        seen[key] = seen.get(key, 0.0) + 1.0
    return len(seen)


class SpeedProbe:
    """Times both kernels against their reference times."""

    def __init__(self):
        import numpy as np

        self.start = np.random.default_rng(0).random(ARRAY_LEN)
        self.x = np.empty_like(self.start)
        self.y = np.empty_like(self.start)
        self.samples: list[tuple[float, float]] = []
        self.sample()  # first numpy calls pay one-off costs
        self.samples.clear()

    def _numpy_kernel(self) -> float:
        import numpy as np

        x, y = self.x, self.y
        np.copyto(x, self.start)
        for _ in range(80):
            np.negative(x, out=y)
            np.exp(y, out=y)
            y *= 0.5
            x += 1.0
            np.sqrt(x, out=x)
            x += y
        return float(x.sum())

    def sample(self, n: int = 1) -> None:
        """Record ``n`` samples of each kernel's current over reference time."""
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(n):
                t0 = time.perf_counter()
                _python_kernel()
                t1 = time.perf_counter()
                self._numpy_kernel()
                t2 = time.perf_counter()
                self.samples.append(((t1 - t0) / REF_PYTHON_S, (t2 - t1) / REF_NUMPY_S))
        finally:
            if gc_was_enabled:
                gc.enable()

    def kernels(self) -> tuple[float, float]:
        """Median slowness of the Python kernel and of the numpy kernel."""
        return (statistics.median(py for py, _ in self.samples),
                statistics.median(npy for _, npy in self.samples))


def slowness(kernels: tuple[float, float], python_share: float = PYTHON_SHARE) -> float:
    """The two kernels' slownesses, weighted into one."""
    return python_share * kernels[0] + (1.0 - python_share) * kernels[1]
