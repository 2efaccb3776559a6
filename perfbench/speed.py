"""Machine speed, measured between jobs by fixed reference work.

The benchmark shares a small virtual machine whose speed drifts by tens of
percent over seconds, with CPU time drifting as much as wall time.  To keep
that drift out of the job metrics, a probe runs between timed jobs and a
job's wall time is divided by the mean slowdown probed just before and just
after it.  The slowdown is the geometric mean, over four kinds of reference
work, of the probe's time over its nominal time.  The reference work stands
for the things permlab spends time on, and none of it calls permlab, so no
change to the program can move it:

* interpreter work: a Python loop with integer arithmetic and dict stores;
* array passes: Philox normals and element-wise products over 32k doubles;
* extended precision: products of 40 x 40 longdouble matrices;
* scalar quadrature: scipy's ``quad`` calling back into a Python integrand
  made of numpy scalar operations, as the potentials do.  Under heavy host
  load this work slows more than the other three, as quadrature jobs do.

Each kind takes the better of two runs, and a slowdown is the median of the
last seven probes, which damps the probe's own noise.  Times divided by the
slowdown are seconds at the nominal speed below: the probe's speed on an
idle core of the machine the benchmark was defined on (2-vCPU Intel Xeon
VM, Python 3.11, numpy 2.4, scipy 1.17).  The quadrature's nominal time was
set against the other three on that machine under load.
"""

from __future__ import annotations

import math
import statistics
from collections import deque
from time import perf_counter

import numpy as np
from scipy.integrate import quad

NOMINAL_S = (3.2e-4, 7.2e-4, 4.6e-4, 2.15e-4)
WINDOW = 7


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._vec = rng.random(1 << 15)
        self._ld = rng.random((40, 40)).astype(np.longdouble) / 40.0
        self._recent: deque[float] = deque(maxlen=WINDOW)
        self.samples: list[float] = []
        for _ in range(WINDOW):
            self.sample()

    def _interpreter(self):
        total, table = 0, {}
        for i in range(4000):
            total += i * i
            table[i & 63] = total

    def _arrays(self):
        draws = np.random.Generator(np.random.Philox(7)).standard_normal(self._vec.size)
        prod = draws * self._vec
        float(np.sum(prod * prod))

    def _extended(self):
        out = self._ld
        for _ in range(2):
            out = out @ self._ld

    @staticmethod
    def _integrand(x: float) -> float:
        return float(np.cos(1.7 * x) / (1.0 + np.abs(x) ** 1.5))

    def _quadrature(self):
        quad(self._integrand, 0.0, 30.0, limit=100)

    def measure(self) -> list[float]:
        """Best-of-two seconds of each kind of reference work."""
        times = []
        for work in (self._interpreter, self._arrays, self._extended,
                     self._quadrature):
            best = math.inf
            for _ in range(2):
                t0 = perf_counter()
                work()
                best = min(best, perf_counter() - t0)
            times.append(best)
        return times

    def sample(self) -> float:
        """Probe once; returns the current slowdown factor (1 = nominal)."""
        times = self.measure()
        slowdown = math.exp(sum(math.log(t / n) for t, n in zip(times, NOMINAL_S))
                            / len(times))
        self._recent.append(slowdown)
        self.samples.append(slowdown)
        return self.factor()

    def factor(self) -> float:
        return statistics.median(self._recent)
