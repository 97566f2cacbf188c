"""Host-speed calibration: rescale measured times to a reference host speed.

The shared host the benchmark runs on changes speed by up to a factor of
two for stretches of seconds to minutes (wall time stays close to CPU time,
so this is not time spent descheduled). A time measured in one such state
cannot be compared with one measured in another, and no run is long enough
to average the states out.

So every timed interval is paired with a calibration measured during it: a
fixed job that touches no bpagg code (a short interpreter loop of scalar
numpy draws, like the per-copy stepping that dominates the simulation
workloads) is timed over and over, and the interval's time is rescaled by

    CAL_REF_S / (mean time of one calibration job in the interval)

that is, to the time it would take on a host where the job takes CAL_REF_S.
A change to bpagg moves the rescaled time as it moves the raw time; a
change of host speed moves both the interval and the calibration and
largely cancels (on clt-inar passes, log pass time against log job time
has slope 0.92). The raw times are kept in every result file.

The job runs in the process and thread that do the measured work, from a
SIGALRM handler every SAMPLE_EVERY_S seconds while a pass or a set-up runs
(PEP 475 retries interrupted system calls), and its own time is subtracted
from the interval. Timing it in another process does not work: the speed
of the host's two CPUs changes separately.
"""

import signal
import time

import numpy as np

# Seconds one calibration job takes on the reference host state (the usual,
# contended state of the shared 2-core x86_64 host the benchmark was tuned
# on). Only a scale: comparisons between commits do not depend on it.
CAL_REF_S = 550e-6
SAMPLE_EVERY_S = 0.05
BLOCK_S = 0.25
_STEPS = 300


class Calibration:
    """The calibration job, with its own generator so no program state is touched."""

    def __init__(self):
        self._rng = np.random.Generator(np.random.PCG64(20171113))
        for _ in range(20):
            self.job()

    def job(self):
        rng = self._rng
        x = 3
        acc = 0
        for i in range(_STEPS):
            x = int(rng.binomial(x + 2, 0.5))
            acc += x * i % 5
        return acc

    def timed_job(self):
        t0 = time.perf_counter()
        self.job()
        return time.perf_counter() - t0

    def block(self, seconds=BLOCK_S):
        """Mean seconds per job over a block of at least `seconds`."""
        total = 0.0
        n = 0
        while total < seconds:
            total += self.timed_job()
            n += 1
        return total / n


class Sampler:
    """Runs the calibration job from SIGALRM while a timed interval runs."""

    def __init__(self, calibration):
        self._cal = calibration
        self.job_s = 0.0
        self.jobs = 0
        self.handler_s = 0.0

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.job_s += self._cal.timed_job()
        self.jobs += 1
        self.handler_s += time.perf_counter() - t0

    def start(self):
        self.job_s = 0.0
        self.jobs = 0
        self.handler_s = 0.0
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def rescale(seconds, cal_s):
    """`seconds` measured while one calibration job took `cal_s`, at reference speed."""
    return seconds * CAL_REF_S / cal_s
