"""Host-speed calibration: fixed kernels timed next to every operation.

The benchmark's host is a VM on a shared machine.  Its speed changes by up
to 1.8x over minutes for the same work: one process repeating the same
round of free-spectra operations took 4.7 s a round at first and 8.8 s four
minutes later, with CPU time equal to wall time.  No estimator over one run
removes a change that lasts longer than the run.

So a fixed kernel that shares no code with qwire is timed before each
operation and after the last one of a round, and the run reports its times
scaled by how much slower the kernel ran than its reference time: seconds
at the reference speed of the host.  The kernels do the kinds of work the
workloads do:

* ``interpreted``: small complex matrix products and SVDs driven from a
  Python loop, as in the sigma_min scans and the eigenfunction assembly
  (``free-spectra``);
* ``ode``: scipy's RK45 on a fixed linear system with a Python right-hand
  side, as in the variable-coefficient propagator (``variable-spectra``);
* none for ``fd-oracle``: its dense complex ``eigh`` runs through the BLAS
  pool and tracked no kernel better than its own wall time (a 360 or 900
  ``eigh`` before each operation scattered the ratio more than the plain
  time), so its times are wall seconds.

A change to qwire does not change the kernels, so it shows in full in the
scaled times; a change of the host's speed shows in both and cancels.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.integrate import solve_ivp

_RNG = np.random.default_rng(20120514)
_SMALL = _RNG.standard_normal((40, 4, 4)) + 1j * _RNG.standard_normal((40, 4, 4))


def _interpreted() -> float:
    acc = 0.0
    for k in range(600):
        m = _SMALL[k % 40]
        for j in range(3):
            m = (m @ _SMALL[(k + j) % 40]) * 0.5
        acc += float(np.linalg.svd(m, compute_uv=False)[-1])
        x = 0.0
        for i in range(150):
            x += i * 0.5
        acc += x * 1e-9
    return acc


def _ode_rhs(x, y):
    k = 1.0 + 0.5 * x
    return np.array([y[1], -k * y[0], y[3], -k * y[2]])


def _ode() -> float:
    sol = solve_ivp(_ode_rhs, (0.0, 20.0), [1.0, 0.0, 0.0, 1.0], method="RK45",
                    rtol=1e-9, atol=1e-12)
    return float(sol.y[0, -1])


# kernel and its time in seconds on the reference machine (a 2-vCPU VM,
# Python 3.11.7, numpy 2.4.6, two BLAS threads): the median of 40 calls
KERNELS = {
    "interpreted": (_interpreted, 0.028),
    "ode": (_ode, 0.064),
}


class Calibration:
    """One kernel, timed on demand; ``kind`` None times nothing and leaves
    wall seconds as they are."""

    def __init__(self, kind: str | None):
        self.kernel, self.reference_s = KERNELS[kind] if kind else (None, 1.0)
        if self.kernel is not None:
            self.kernel()   # the first call pays for allocation and start-up

    def measure(self) -> float:
        if self.kernel is None:
            return self.reference_s
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def scale(self, kernel_s: list[float]) -> float:
        """Wall seconds times this are seconds at the reference speed: the
        reference time over the mean of the kernel times ``kernel_s``."""
        return self.reference_s * len(kernel_s) / sum(kernel_s)
