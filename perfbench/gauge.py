"""Machine-speed gauge: scales measured time to a machine of fixed speed.

On a shared host the same pure-Python work runs 20 to 50 percent slower
at some times than at others, for seconds to minutes at a time, and
process CPU time slows just as much as wall time.  A run cannot avoid
such a slowdown, but it can measure it: every ``INTERVAL_S`` of wall
time the gauge times ``reference_block()``, a fixed piece of pure-Python
work that shares no code with kummerlab.  A timer signal triggers the
blocks, so they interrupt long operations too.  A change to the library
cannot make the block faster or slower, so a change in its time is a
change in the machine's speed.

``now()`` is a work clock: ``time.perf_counter()`` minus the time spent
in reference blocks.  ``scaled(a, b)`` is the work-clock interval
``[a, b]`` in seconds at ``REFERENCE_S`` per block, the block's time on
the 2-core Xeon VM this benchmark was built on when that machine was
quiet: each stretch of work is multiplied by ``REFERENCE_S`` over the
block time measured around it.
"""

import bisect
import gc
import signal
import statistics
import time

REFERENCE_S = 0.001  # about reference_block()'s time on the build machine
INTERVAL_S = 0.1  # wall time between two reference blocks
SMOOTH = 2  # a mark's block time is the median of the marks within this many


def reference_block() -> int:
    """Fixed pure-Python work in the style of the library: list
    convolution mod p, a growing big integer, dict traffic."""
    a = list(range(1, 61))
    b = list(range(7, 67))
    p = 1000003
    out = [0] * 119
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    n = 1
    for k in range(1, 400):
        n = n * (k | 1) + k
    d = {}
    for k in range(3000):
        d[k * 7 % 1009] = d.get(k * 7 % 1009, 0) + k
    return out[5] + n % 97 + len(d)


def time_block() -> float:
    """Seconds one reference block takes now, with the garbage collector
    off so that no collection of the caller's objects lands in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_block()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def block_time(samples: int = 5) -> float:
    """Median of a few reference blocks: the machine's speed just now."""
    return statistics.median(time_block() for _ in range(samples))


class Gauge:
    """Work clock and speed samples for one timed run.

    A ``SIGALRM`` timer takes a speed sample every ``INTERVAL_S`` of wall
    time, so samples land inside long operations as well as between
    short ones.  Call ``finish()`` when the timed work ends; it stops the
    timer and restores the previous handler.
    """

    def __init__(self):
        self.spent = 0.0  # seconds spent in reference blocks
        self.marks = []  # work-clock time of each block
        self.blocks = []  # seconds each block took
        self.busy = False
        self.measure()
        self.previous = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def now(self) -> float:
        # Read again if a block ran between the two reads.
        while True:
            spent = self.spent
            t = time.perf_counter()
            if self.spent == spent:
                return t - spent

    def measure(self) -> None:
        at = self.now()
        took = time_block()
        self.spent += took
        self.marks.append(at)
        self.blocks.append(took)

    def _alarm(self, signum, frame) -> None:
        if not self.busy:
            self.busy = True
            try:
                self.measure()
            finally:
                self.busy = False

    def finish(self) -> None:
        """Stop sampling, close the last stretch and fix the speed of
        every stretch between two marks."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.measure()
        n = len(self.blocks)
        smooth = [
            statistics.median(self.blocks[max(0, k - SMOOTH): k + SMOOTH + 1]) for k in range(n)
        ]
        # cum[k]: scaled seconds from the first mark to mark k.
        self.rate = [REFERENCE_S / ((smooth[k] + smooth[k + 1]) / 2) for k in range(n - 1)]
        self.cum = [0.0]
        for k in range(n - 1):
            self.cum.append(self.cum[-1] + (self.marks[k + 1] - self.marks[k]) * self.rate[k])

    def _at(self, t: float) -> float:
        k = min(max(bisect.bisect_right(self.marks, t) - 1, 0), len(self.rate) - 1)
        return self.cum[k] + (t - self.marks[k]) * self.rate[k]

    def scaled(self, a: float, b: float) -> float:
        """Work-clock interval [a, b] (within the marks) in scaled seconds."""
        return self._at(b) - self._at(a)

    def speed(self) -> float:
        """Median machine speed over the run, 1.0 being the build machine's."""
        return REFERENCE_S / statistics.median(self.blocks)
