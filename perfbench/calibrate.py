"""Host-speed reference measured alongside the workload.

On a shared host the speed of one core drifts by up to 1.6x over tens of
seconds, so raw wall times of runs made a minute apart disagree by far more
than any change worth measuring.  A ``Calibrator`` times a fixed reference
kernel (a Python loop over small matrix-vector products plus small
least-squares solves; it never calls the package) at least every ``PERIOD``
seconds during the run: between operations and, inside long operations, just
before ``engine.refit`` calls.  Kernel time is excluded from every timed
interval.  End-to-end times are then reported in calibrated seconds:

    calibrated = wall seconds * (REF_SECONDS / median kernel seconds) ** SENSITIVITY

REF_SECONDS is the kernel's typical time on the reference host (2-core Xeon
VM at 2.1 GHz, numpy 2.4 with OpenBLAS 0.3.31 on one thread), so calibrated
and wall seconds roughly agree there.  SENSITIVITY is how strongly the
workloads' speed follows the kernel's: the kernel is more interpreter-bound
than the LAPACK-heavy workloads and swings more.  0.75 gave the smallest
spread over 60 runs of the three workloads (seeds 0-5 and 10-23); 1.0 gave
up to 0.124, 0.75 at most 0.086.
"""

import functools
import statistics
import time

import numpy as np

from tracer import Patch, resolve

PERIOD = 0.5
REF_SECONDS = 0.0125
SENSITIVITY = 0.75


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._A = rng.standard_normal((120, 60))
        self._b = rng.standard_normal(120)
        self.samples = []
        self.spent = 0.0           # seconds spent in the kernel so far
        self._next = 0.0
        self._patch = Patch()

    def _kernel(self):
        acc = 0.0
        for _ in range(800):
            c = self._A.T @ self._b
            acc += sum(k * 0.5 for k in range(60)) + int(np.argmax(c))
        for k in range(10, 60, 5):
            x, *_ = np.linalg.lstsq(self._A[:, :k], self._b, rcond=None)
            acc += float(x[0])
        return acc

    def sample(self):
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += end - start
        self._next = end + PERIOD

    def maybe_sample(self):
        if time.perf_counter() >= self._next:
            self.sample()

    def install(self):
        """Also sample inside operations, before ``engine.refit`` calls."""
        func = resolve("mtgreedy.engine", ("refit",))
        if func is None:
            return

        @functools.wraps(func)
        def sampled_refit(*args, **kwargs):
            self.maybe_sample()
            return func(*args, **kwargs)
        self._patch.wrap(func, sampled_refit)

    def uninstall(self):
        self._patch.undo()

    def factor(self):
        """Multiplier from wall seconds to calibrated seconds."""
        return (REF_SECONDS / statistics.median(self.samples)) ** SENSITIVITY
