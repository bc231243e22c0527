"""A fixed reference load that tells how fast the shared host runs right now.

The benchmark machine's speed changes by up to about 40 % from one second to
the next and for minutes at a time, with CPU time equal to wall time (no
steal), and the change slows every phase of a run alike. So each timed phase
is taken next to this reference load, which touches no softki code, and is
reported in seconds at the reference's nominal speed:

    scaled seconds = measured seconds * NOMINAL_S / reference seconds

where the reference seconds are the mean of the samples taken just before
and just after the phase. On a host running at the speed where the reference
takes NOMINAL_S, the scaled and measured seconds agree.
"""

import signal
import statistics
import time

import numpy as np

# seconds one reference sample takes on the machine described in README.md
# when the host runs at full speed
NOMINAL_S = 0.012

# seconds between two reference samples inside a long phase
INTERVAL_S = 0.25


class Reference:
    """Buffers of the reference load; sampling allocates nothing."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((128, 128))
        self.small_out = np.empty_like(self.small)
        self.large = rng.standard_normal((256, 256))
        self.large_out = np.empty_like(self.large)

    def sample(self) -> float:
        """Seconds for one pass of small GEMMs, large GEMMs and a Python loop,
        the three kinds of work the timed phases are made of."""
        t0 = time.perf_counter()
        for _ in range(50):
            np.matmul(self.small, self.small, out=self.small_out)
        for _ in range(12):
            np.matmul(self.large, self.large, out=self.large_out)
        total = 0
        for i in range(50_000):
            total += i
        return time.perf_counter() - t0

    def median(self, count: int = 3) -> float:
        """Median of a few samples; the first use in a process pays warm-up."""
        return statistics.median(self.sample() for _ in range(count))


def scaled(seconds: float, before: float, after: float) -> float:
    """Seconds at nominal speed, from the reference taken around the phase."""
    return seconds * NOMINAL_S / ((before + after) / 2.0)


class Timer:
    """Times phases one after another against the reference load.

    A phase's reference is the mean of a sample taken just before it, one
    taken every INTERVAL_S while it runs (from a SIGALRM handler, so between
    two bytecodes of the phase, never inside a numpy call) and one taken just
    after it. The samples taken inside the phase are subtracted from its time.
    The sample after a phase is the next phase's sample before.

    ``on_inside(seconds)``, if given, is told the length of every sample taken
    inside a phase; a traced worker passes the span recorder's ``pause``.
    """

    def __init__(self, before: float, on_inside=None):
        self.reference = Reference()
        self.last = before
        self.on_inside = on_inside

    def ended(self, seconds: float) -> float:
        """Scaled seconds of a phase that took ``seconds`` and just ended
        without samples inside it (set-up, which starts in another process)."""
        before, self.last = self.last, self.reference.median()
        return scaled(seconds, before, self.last)

    def __call__(self, fn, *args):
        """Run ``fn(*args)``; returns (its result, scaled seconds, measured
        seconds without the samples taken inside it)."""
        inside = []

        def tick(signum, frame):
            inside.append(self.reference.sample())
            if self.on_inside is not None:
                self.on_inside(inside[-1])

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - t0 - sum(inside)
            signal.signal(signal.SIGALRM, previous)
        before, self.last = self.last, self.reference.sample()
        speed = statistics.fmean([before, *inside, self.last])
        return out, seconds * NOMINAL_S / speed, seconds
