"""The machine's speed, sampled by a fixed block of reference work that
runs while the program runs.

The machine is shared: its CPU speed changes from second to second, and by
up to 2x for minutes at a time, so raw times of the same code differ from
run to run by more than a regression worth catching.  While an operation
runs, ``Speed.sampling`` interrupts it every ``INTERVAL_S`` with SIGALRM and
runs ``block`` in the signal handler.  The blocks' time is taken out of the
operation's time, and every time of the run is scaled by
``REFERENCE_S / mean block time``.  A scaled time is the time the operation
would have taken at the speed at which one block takes ``REFERENCE_S``.

Blocks run during the operation, not after it, because the speed changes
within a second: on ``sweep-bounds`` the log of a round's time and the log
of the block time correlated 0.41 with blocks run after each operation and
0.91 with blocks run inside it.  Mean times on both sides, not medians: an
operation averages the speed over its length, and so does the mean of
many blocks.

The block is an interpreted integer loop and uses nothing of ``newmansum``,
so a change to the program does not move it.  Blocks of big-integer
products or of float powers were tried beside it and followed the
program's times less closely.
"""

import contextlib
import signal
from time import perf_counter

__all__ = ["INTERVAL_S", "REFERENCE_S", "Speed", "block"]

#: Time of one block at the reference speed (a 2-vCPU machine, quiet).
REFERENCE_S = 0.0015
#: Wall time between two blocks while an operation runs.
INTERVAL_S = 0.01


def block():
    """About 1.5 ms of fixed work at the reference speed.  Returns a
    checksum, so that none of it can be skipped."""
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


class Speed:
    """Blocks run so far and their total time."""

    def __init__(self):
        self.blocks = 0
        self.seconds = 0.0

    def run_block(self, *_):
        t0 = perf_counter()
        block()
        self.seconds += perf_counter() - t0
        self.blocks += 1

    def run(self, seconds):
        """Run whole blocks until `seconds` have passed, at least one."""
        t0 = perf_counter()
        self.run_block()
        while perf_counter() - t0 < seconds:
            self.run_block()

    @contextlib.contextmanager
    def sampling(self):
        """Run a block every INTERVAL_S of wall time while the body runs."""
        previous = signal.signal(signal.SIGALRM, self.run_block)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def scale(self):
        """Factor that turns a time measured in this run into reference seconds."""
        return REFERENCE_S * self.blocks / self.seconds

    @property
    def block_ms(self):
        return self.seconds / self.blocks * 1e3
