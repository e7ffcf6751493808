"""Edge-state scans of rotated boundary conditions."""

import math

import numpy as np
import pytest

from qwire.bc import make_dirichlet, make_neumann
from qwire.domain import Interval, QuantumDomain
from qwire.edge import collar_fraction, edge_scan, rotate_bc
from qwire.oracle import robin_edge_groundstate
from qwire.spectral import SolveOptions, find_eigenvalues

DOM = QuantumDomain([Interval(0.0, math.pi, "1", "0")])


def test_rotate_bc_is_phase_multiplication():
    U = make_dirichlet(1)
    Ut = rotate_bc(U, 0.7)
    assert np.allclose(Ut.matrix, np.exp(0.7j) * U.matrix)


def test_rotation_by_pi_gives_neumann():
    Ut = rotate_bc(make_dirichlet(1), math.pi)
    assert np.allclose(Ut.matrix, make_neumann(1).matrix)
    spectrum = find_eigenvalues(Ut, DOM, (-0.2, 0.3), SolveOptions())
    assert len(spectrum.eigs) == 1
    assert abs(spectrum.eigs[0].lam) <= 1e-8


def test_edge_scan_matches_robin_oracle():
    scan = edge_scan(make_dirichlet(1), DOM, [0.8, 0.5],
                     opts=SolveOptions())
    assert scan.all_negative and scan.monotone_decreasing
    for t, lam in zip(scan.t_values, scan.lam_min):
        ref = robin_edge_groundstate(math.pi, 1.0 / math.tan(t / 2.0))
        assert abs(lam - ref) <= 1e-6 * abs(ref)
    # boundary localization grows as t decreases
    assert scan.collar_mass[1] > scan.collar_mass[0] > 0.5


def test_collar_fraction_of_interior_mode():
    # the Dirichlet ground state sin(x) on [0, pi] carries little mass in
    # the outer 10% collars: 2 * int_0^{pi/10} sin^2 / (pi/2) ~ 2.6%
    spectrum = find_eigenvalues(make_dirichlet(1), DOM, (0.2, 0.8), SolveOptions())
    frac = collar_fraction(DOM, spectrum.eigs[0])
    want = (2.0 / math.pi) * (math.pi / 10.0 - math.sin(2 * math.pi / 10.0) / 2.0)
    # the collar edge is snapped to the sample grid, so allow a one-cell slack
    assert frac == pytest.approx(want, rel=0.15)


def test_edge_scan_floor():
    # the default floor doubles down from -1 until no level lies below it;
    # a given floor must have no level below it
    scan = edge_scan(make_dirichlet(1), DOM, [0.1])
    ref = robin_edge_groundstate(math.pi, 1.0 / math.tan(0.05))
    assert abs(scan.lam_min[0] - ref) <= 1e-9 * abs(ref)
    assert scan.ground_states[0].multiplicity == 2      # the tunnelling twins
    with pytest.raises(ValueError):
        edge_scan(make_dirichlet(1), DOM, [0.1], search_floor=-100.0)


def test_edge_scan_input_validation():
    with pytest.raises(ValueError):
        edge_scan(make_neumann(1), DOM, [0.5])          # no eigenvalue -1
    with pytest.raises(ValueError):
        edge_scan(make_dirichlet(1), DOM, [2.0])        # t outside (0, pi/2]
    with pytest.raises(ValueError):
        edge_scan(make_dirichlet(1), DOM, [0.2, 0.5])   # not descending
