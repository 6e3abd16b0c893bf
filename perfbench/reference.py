"""Fixed reference computation used to cancel machine speed.

The benchmark runs on shared machines whose speed drifts by several percent
between runs taken minutes apart.  Each op is therefore timed between two
runs of this reference, and its CPU time is rescaled as if the reference had
taken ``NOMINAL_MS``.  The reference calls nothing from ``b92sec`` and, once
built, allocates nothing: the simulator's large arrays move glibc's mmap
threshold, and a reference that allocated would then measure the
allocator instead of the machine.
"""

from __future__ import annotations

import math
import mmap
import threading
import time

import numpy as np

# the reference's own median CPU time on a 2-core x86-64 VM (Python 3.11,
# numpy 2.4); an adjusted time reads as milliseconds on a machine of that speed
NOMINAL_MS = 6.0

_SCALAR_STEPS = 5000
_UFUNC_ROUNDS = 20
_SMALL = 2048          # fits in L1, like the closed form's small arrays
_LARGE = 1 << 19       # 4 MB per buffer, like the oracle's and simulator's arrays
_PAGES = 1 << 21       # bytes handed back to the kernel and faulted in again


class Reference:
    """A scalar ``math`` loop plus numpy ufuncs into preallocated buffers.

    Its parts mirror the kinds of work the program does: interpreted scalar
    arithmetic, ufunc calls on cache-resident arrays, passes over arrays
    larger than the cache, and page faults on memory handed back to the
    kernel (the oracle's temporaries spend about a fifth of its CPU time
    there).  The mapping is made once, so no part goes through malloc.
    """

    def __init__(self) -> None:
        self._a = np.linspace(0.1, 1.0, _SMALL)
        self._b = np.empty(_SMALL)
        self._c = np.empty(_SMALL)
        self._big_a = np.linspace(0.1, 1.0, _LARGE)
        self._big_b = np.empty(_LARGE)
        self._map = mmap.mmap(-1, _PAGES)
        self._pages = np.frombuffer(self._map, dtype=np.uint8)
        self.sink = 0.0

    def _work(self) -> None:
        x = 0.5
        for _ in range(_SCALAR_STEPS):
            x = 0.5 * math.sin(x) + 0.25 * math.sqrt(x * x + 1.0) + 1e-3 * math.log1p(x)
        a, b, c = self._a, self._b, self._c
        for _ in range(_UFUNC_ROUNDS):
            np.multiply(a, 1.0001, out=b)
            np.sin(b, out=c)
            np.add(c, a, out=b)
            np.sqrt(b, out=c)
            np.hypot(c, a, out=b)
        np.multiply(self._big_a, 1.0001, out=self._big_b)
        np.add(self._big_b, self._big_a, out=self._big_b)
        np.multiply(self._big_b, 0.5, out=self._big_b)
        self._map.madvise(mmap.MADV_DONTNEED)
        self._pages[::mmap.PAGESIZE] = 1
        self.sink = x + float(b[0]) + float(self._big_b[0])

    def time_s(self) -> float:
        """CPU seconds one reference run takes now.

        Refuses to run while another thread is alive, since a program thread
        would share the core with the reference and skew the adjustment.
        """
        if threading.active_count() != 1:
            raise RuntimeError(
                f"reference needs a single-threaded process, "
                f"{threading.active_count()} threads are alive")
        start = time.process_time()
        self._work()
        return time.process_time() - start


def adjusted_ms(op_s: float, ref_before_s: float, ref_after_s: float) -> float:
    """An op's time in nominal milliseconds, given the references around it."""
    return op_s / (0.5 * (ref_before_s + ref_after_s)) * NOMINAL_MS
