"""The benchmark's references against qwire's finite-difference oracle.

A wrong reference would fail a correct solver, so each one is confirmed here
by an independent discretisation: ``fd_spectrum``'s Richardson-extrapolated
levels must match the reference within the oracle's own error estimate.

    PYTHONPATH=src python3 -m pytest -q perfbench/check_references.py

(The file name keeps it out of the repository's default test collection; it
takes about half a minute.)
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
from qwire import bc  # noqa: E402
from qwire.domain import Interval, QuantumDomain  # noqa: E402
from qwire.oracle import fd_spectrum  # noqa: E402


def _within_estimate(want, U, domain, N=1200):
    want = np.asarray(want, dtype=float)
    lams, est = fd_spectrum(U, domain, N=N, k=len(want))
    # the same acceptance as the benchmark's checks: the Richardson estimate,
    # with a 1e-8 floor for estimates that read below the error by accident
    assert np.all(np.abs(lams - want) <= est + 1e-8 * np.maximum(1.0, np.abs(want))), \
        (lams, want, est)


def test_oscillator_levels_are_n_plus_half():
    _within_estimate([n + 0.5 for n in range(5)], bc.make_dirichlet(1),
                     QuantumDomain([Interval(-6.0, 6.0, "1", "x^2/2")]))


def test_metric_levels_follow_arc_length():
    want = ref.arc_length_levels(lambda x: 1.0 + 0.3 * x, 0.0, 2.0, 3)
    assert want[0] == pytest.approx((math.pi / 2.6) ** 2 / 2.0, rel=1e-14)
    _within_estimate(want, bc.make_dirichlet(1),
                     QuantumDomain([Interval(0.0, 2.0, "(1+0.3*x)^2", "0")]))


@pytest.mark.parametrize("t", [1.0, 0.5, 0.2])
def test_robin_edge_level(t):
    U = bc.UnitaryBC(-np.exp(1j * t) * np.eye(2))
    lam = ref.robin_edge_level(math.pi, 1.0 / math.tan(t / 2.0))
    lams, est = fd_spectrum(U, QuantumDomain([Interval(0.0, math.pi)]), N=1200, k=1)
    assert abs(lams[0] - lam) <= est[0] + 1e-8 * abs(lam)


def test_collocation_closed_forms():
    free = [(0.0, 2.0 * math.pi, lambda x: 0.0 * x)]
    assert np.allclose(ref.collocation_levels(-np.eye(2), free)[:6],
                       ref.dirichlet_levels(2.0 * math.pi, 6), atol=1e-10)
    periodic = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.allclose(ref.collocation_levels(periodic, free)[:7],
                       ref.quasiperiodic_levels(0.0, 2.0 * math.pi, 4.6), atol=1e-10)


def test_collocation_random_u2_with_potential():
    rng = np.random.default_rng(3)
    U = ref.unitary_with_phases(rng.uniform(0.0, math.pi - 1.0, size=2), rng)
    levels = ref.collocation_levels(U, [(0.0, 2.0 * math.pi, lambda x: 0.5 * x * x)])
    _within_estimate(levels[:5], bc.UnitaryBC(U),
                     QuantumDomain([Interval(0.0, 2.0 * math.pi, "1", "x^2/2")]))


def test_collocation_three_intervals():
    rng = np.random.default_rng(4)
    U = ref.unitary_with_phases(rng.uniform(0.0, math.pi - 1.0, size=6), rng)
    lengths = [1.0, 1.3, 0.7]
    levels = ref.collocation_levels(U, [(0.0, L, lambda x: 0.0 * x) for L in lengths], 48)
    _within_estimate(levels[:5], bc.UnitaryBC(U),
                     QuantumDomain([Interval(0.0, L) for L in lengths]), N=400)
