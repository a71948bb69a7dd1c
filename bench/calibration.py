"""Host speed, measured through the ops so their times can be scaled.

On a shared 2-vCPU virtual machine the same op runs anywhere from 1x to
2.3x its fastest time: the host flips between a fast and a slow state
within a second, and stays mostly slow for stretches of 10 to 40 seconds,
longer than a run. A fixed loop of plain Python and numpy work slows down
with it. Over 160 seconds of such swings, the medians of 20-second windows
of four kinds of op (greedy pair tables, tree search, exploration, a lab
experiment) differed by 42-60% between windows, and by 8-12% once each op
was divided by the mean of the loop times around it. Scaled times are op
times on a host where the loop takes CAL_REF_S.

While a HostClock is entered, a timer runs the loop every CAL_EVERY
seconds, also in the middle of an op, and the clock keeps the time it
spends so that ops can leave it out. An op is scaled by the calibrations
within CAL_NEAR_S or its own length of it, whichever is longer: a 10 s op
spans many flips of the host.
"""

import bisect
import signal
import statistics
import time

import numpy as np

CAL_EVERY = 0.1  # s between calibrations
CAL_NEAR_S = 1.0  # s either side of an op, at least, whose calibrations count
CAL_REF_S = 0.003  # s the loop takes on the reference host

_PERM = (np.arange(10**4) * 7919) % 10**4


def calibration_loop():
    """Dict and integer work like the pair tables and exploration, then
    gathers over a 10^4-state array like the word maps."""
    table = {}
    total = 0
    for i in range(6000):
        table[i * 7919 % 4099] = i
        total += table.get(i % 4099, 0) & 7
    image = _PERM
    for _ in range(40):
        image = _PERM[image]
    return total + int(image[0])


class HostClock:
    """Calibrations taken through a run, as (time taken at, loop seconds).

    Use as a context manager: entering starts the timer, leaving stops it.
    `spent` is the time calibrations took in all, handler included."""

    def __init__(self):
        self.at = []
        self.cost = []
        self.spent = 0.0
        self._busy = False

    def calibrate(self, *_signal):
        if self._busy:
            return
        self._busy = True
        entered = time.perf_counter()
        calibration_loop()
        done = time.perf_counter()
        self.at.append(done)
        self.cost.append(done - entered)
        self.spent += time.perf_counter() - entered
        self._busy = False

    def __enter__(self):
        self.calibrate()
        signal.signal(signal.SIGALRM, self.calibrate)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY, CAL_EVERY)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.calibrate()

    def scale(self, start, end):
        """Factor from seconds spent between start and end to reference
        seconds: CAL_REF_S over the mean loop time of the calibrations
        within max(CAL_NEAR_S, end - start) of the interval, and of the last
        one before it and the first after it."""
        near = max(CAL_NEAR_S, end - start)
        lo = min(bisect.bisect_left(self.at, start - near),
                 bisect.bisect_right(self.at, start) - 1)
        hi = max(bisect.bisect_right(self.at, end + near),
                 bisect.bisect_left(self.at, end) + 1)
        return CAL_REF_S / statistics.fmean(self.cost[lo:hi])

    def speed(self):
        """The host's speed over the run, as reference loop time over the
        median loop time; 1 on the reference host."""
        return CAL_REF_S / statistics.median(self.cost)
