"""Host-speed calibration.

On a shared host the speed of a vCPU drifts.  On the reference host, a
shared x86_64 VM with 2 vCPUs (Python 3.11, numpy 2.4 with OpenBLAS), the
same op ran at two speeds about 1.4x apart, switching every few hundred
milliseconds to tens of seconds, on either vCPU; the median of a 6 s block
of ops moved by 20% (standard deviation of its log) over two minutes.  A
drift that size swamps the regressions the benchmark has to resolve.

So every timing is taken next to a fixed calibration kernel and reported
in reference seconds: measured seconds x REFERENCE_S / the median kernel
time around it.  The kernel is pure Python: heap operations on tuple keys
and integer arithmetic, the interpreter work the search and the CLI
spend their time on.  It makes no numpy calls: on the reference host a
kernel that made small numpy products ran up to 2x faster for minutes
while the ops ran 15% faster, and scaling by it added noise instead of
taking it out.  There, the pure-Python kernel's 0.5 s medians followed
the drift of the ops (correlation 0.85-0.94 over 4 s blocks) and cut the
spread of 6 s block medians from 0.20-0.24 to 0.04-0.09.

That works only if the kernel runs close in time to every op, also
inside ops that take seconds.  While `sampling()` is active an interval
timer (SIGALRM, no thread) runs the kernel every INTERVAL_S, between ops
or in the middle of one; `sampled_within` gives the kernel time that
landed inside a timed call, and the caller takes it out.  On a host whose
speed holds still the scale factor is a constant, so ratios between two
commits are unchanged.
"""

from __future__ import annotations

import bisect
import contextlib
import heapq
import signal
import statistics
import time

# The kernel's typical time on the reference host described above, so
# that reference seconds come out close to measured seconds there.
REFERENCE_S = 1.3e-3


def _kernel() -> int:
    # A toy best-first search over tuple keys, then an integer loop.
    heap = [(0.0, 0, ())]
    expanded = 0
    while heap and expanded < 150:
        value, depth, path = heapq.heappop(heap)
        expanded += 1
        for a in range(4):
            key = (value + ((a * 7 + depth * 3) % 11) * 0.1, depth + 1, path + ((a, depth),))
            heapq.heappush(heap, key)
    total = 0
    for i in range(6000):
        total += i * i % 7
    return expanded + total


def kernel_seconds() -> float:
    """Fastest of three kernel runs; the minimum drops interrupts."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Calibrator:
    """Kernel samples and their times.  `reference_seconds` turns a
    measured time into reference seconds using the median kernel time
    within WINDOW_S of it: one sample scatters by about 10%, and a median
    over a second follows the drift without the scatter."""

    INTERVAL_S = 0.2
    WINDOW_S = 0.5

    def __init__(self):
        self.times: list[float] = []
        self.kernels: list[float] = []
        # [start, end) of every sample, to take them out of timed calls.
        self._starts: list[float] = []
        self._spent: list[float] = [0.0]  # kernel seconds before sample i
        self._busy = False
        self.sample()

    def sample(self) -> None:
        if self._busy:
            return
        # The timer's handler may interrupt a sample taken by tick().
        self._busy = True
        try:
            t0 = time.perf_counter()
            k = kernel_seconds()
            t1 = time.perf_counter()
            self.kernels.append(k)
            self.times.append((t0 + t1) / 2)
            self._starts.append(t0)
            self._spent.append(self._spent[-1] + (t1 - t0))
        finally:
            self._busy = False

    def tick(self) -> None:
        """Sample between ops if none was taken in the last INTERVAL_S."""
        if time.perf_counter() - self.times[-1] >= self.INTERVAL_S:
            self.sample()

    @contextlib.contextmanager
    def sampling(self):
        """Sample every INTERVAL_S from a SIGALRM handler, also inside ops."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def sampled_within(self, t0: float, t1: float) -> float:
        """Kernel seconds spent inside [t0, t1], both read with
        time.perf_counter().  A sample runs to its end before the code it
        interrupted goes on, so it lies wholly inside or wholly outside."""
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_left(self._starts, t1)
        return self._spent[hi] - self._spent[lo]

    def reference_seconds(self, start: float, end: float, measured: float) -> float:
        """`measured` seconds of work done between start and end; valid
        once a sample has been taken after end."""
        lo = bisect.bisect_right(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_left(self.times, end + self.WINDOW_S)
        # Always include the samples just before and just after the call.
        lo = min(lo, bisect.bisect_right(self.times, start) - 1)
        hi = max(hi, bisect.bisect_left(self.times, end) + 1)
        local = statistics.median(self.kernels[lo:hi])
        return measured * REFERENCE_S / local
