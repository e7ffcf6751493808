"""Edge-state scans of rotated boundary conditions."""

import math

import numpy as np
import pytest

from conftest import count_calls
from qwire import spectral
from qwire.bc import UnitaryBC, cayley_degeneracy, make_dirichlet, make_neumann, random_unitary
from qwire.domain import Interval, QuantumDomain
from qwire.edge import collar_fraction, edge_scan, rotate_bc
from qwire.oracle import robin_edge_groundstate
from qwire.spectral import SolveOptions, find_eigenvalues

DOM = QuantumDomain([Interval(0.0, math.pi, "1", "0")])
TWO = QuantumDomain([Interval(0.0, 1.0), Interval(0.0, 1.3)])


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


def test_edge_scan_meets_the_closed_form_to_rounding():
    # the edge level of the Robin interval solves c tanh(c pi/2) = cot(t/2),
    # lam = -c^2/2; references solved to 40 digits with mpmath.findroot
    ref = [-1.696043027188712712109324, -7.668909976991891755750697,
           -49.66700052984724345193362, -199.6667500330803609018363]
    scan = edge_scan(make_dirichlet(1), DOM, [1.0, 0.5, 0.2, 0.1])
    assert scan.lam_min == pytest.approx(ref, rel=2e-13, abs=0.0)


def test_edge_scan_at_tiny_t(monkeypatch):
    # Near the Cayley surface the edge level runs to -inf as -2 / t^2.  It
    # still solves c tanh(c pi/2) = cot(t/2), lam = -c^2/2, with the
    # references solved to 50 digits with mpmath.findroot.  The window's
    # top stays at 0.5 however deep the floor, so the search keeps few
    # samples and the grid 257 points.  The rounding floor eps ||K|| /
    # |mu_k'| grows as sqrt(|lam|) relative: ~1e-12 at t = 1e-7
    calls = count_calls(monkeypatch, spectral._Glued, "count")
    for t, ref, rel in ((1e-6, -1999999999999.666666666667, 2e-13),
                        (1e-7, -199999999999999.6666666667, 2e-12)):
        calls.clear()
        scan = edge_scan(make_dirichlet(1), DOM, [t])
        assert scan.lam_min[0] == pytest.approx(ref, rel=rel, abs=0.0)
        assert scan.ground_states[0].xs.shape == (1, 257)
        assert len(calls) <= 20


def test_collar_fraction_of_interior_mode():
    # the Dirichlet ground state sin(x) on [0, pi] carries little mass in
    # the outer 10% collars: 2 * int_0^{pi/10} sin^2 / (pi/2) ~ 2.6%
    spectrum = find_eigenvalues(make_dirichlet(1), DOM, (0.2, 0.8), SolveOptions())
    frac = collar_fraction(DOM, spectrum.eigs[0])
    want = (2.0 / math.pi) * (math.pi / 10.0 - math.sin(2 * math.pi / 10.0) / 2.0)
    # the collar edge is snapped to the sample grid, so allow a one-cell slack
    assert frac == pytest.approx(want, rel=0.15)


def test_edge_scan_floor():
    # the open lower end of the search reaches the deep edge level
    scan = edge_scan(make_dirichlet(1), DOM, [0.1])
    ref = robin_edge_groundstate(math.pi, 1.0 / math.tan(0.05))
    assert abs(scan.lam_min[0] - ref) <= 1e-9 * abs(ref)
    assert scan.ground_states[0].multiplicity == 2      # the tunnelling twins


def test_edge_scan_input_validation():
    with pytest.raises(ValueError):
        edge_scan(make_neumann(1), DOM, [0.5])          # no eigenvalue -1
    with pytest.raises(ValueError):
        edge_scan(make_dirichlet(1), DOM, [2.0])        # t outside (0, pi/2]
    with pytest.raises(ValueError):
        edge_scan(make_dirichlet(1), DOM, [0.2, 0.5])   # not descending


def _one_t_at_a_time(U, domain, t_list):
    return [find_eigenvalues(rotate_bc(U, t), domain, (-math.inf, 0.5)).eigs[0] for t in t_list]


def _assert_scan_matches(scan, want, domain, rel):
    assert [e.multiplicity for e in scan.ground_states] == [e.multiplicity for e in want]
    assert [e.xs.shape for e in scan.ground_states] == [e.xs.shape for e in want]
    lams = np.array([e.lam for e in want])
    assert np.all(np.abs(np.array(scan.lam_min) - lams) <= rel * np.abs(lams))
    collar = [collar_fraction(domain, e) for e in want]
    assert np.all(np.abs(np.array(scan.collar_mass) - collar) <= rel)


@pytest.mark.parametrize("U, domain, t_list, rel", [
    (make_dirichlet(1), DOM, [1.0, 0.5, 0.2, 0.1], 1e-12),
    (make_dirichlet(2), TWO, [1.2, 0.8, 0.5, 0.3, 0.15], 1e-11)])
def test_edge_scan_matches_one_solve_per_t(U, domain, t_list, rel):
    # The scan solves its t values in lockstep, and its Ritz blocks mix
    # them, so a level moves within the eps ||K|| / |mu_k'| rounding floor
    # of find_eigenvalues, ~1e-11 relative on two intervals
    scan = edge_scan(U, domain, t_list)
    _assert_scan_matches(scan, _one_t_at_a_time(U, domain, t_list), domain, rel)


def test_edge_scan_of_mixed_rank():
    # U(0.3) has the eigenvalue -1, so its Q has rank 3 and it is searched
    # in a batch of its own; the other three share one
    V = random_unitary(4, np.random.default_rng(11)).matrix
    U = UnitaryBC(V @ np.diag(np.exp(1j * np.array([math.pi, math.pi - 0.3, 0.4, -1.1])))
                  @ V.conj().T)
    t_list = [1.0, 0.6, 0.3, 0.1]
    Us = [rotate_bc(U, t) for t in t_list]
    assert [cayley_degeneracy(Ut, -1) for Ut in Us] == [0, 0, 1, 0]
    assert sorted(idx for idx, _ in spectral._batches(Us)) == [[0, 1, 3], [2]]
    scan = edge_scan(U, TWO, t_list)
    assert scan.lam_min == pytest.approx([-3.3427, -21.8533, -21.8505, -199.667], rel=1e-5)
    _assert_scan_matches(scan, _one_t_at_a_time(U, TWO, t_list), TWO, 1e-11)


def test_edge_scan_of_no_t():
    scan = edge_scan(make_dirichlet(1), DOM, [])
    assert scan.t_values == scan.lam_min == scan.ground_states == scan.collar_mass == ()
    assert scan.all_negative and scan.monotone_decreasing


def test_edge_scan_names_the_first_t_without_a_level():
    # Dirichlet at 0 and e^{2i} at 0.2: e^{it} U has a level below 0.5 at
    # t = 1.5 and 0.7, and none at 1.1 and 0.9
    U = UnitaryBC(np.diag([-1.0, np.exp(2j)]))
    with pytest.raises(RuntimeError, match=r"^no eigenvalue below 0.5 at t=1.1$"):
        edge_scan(U, QuantumDomain([Interval(0.0, 0.2)]), [1.5, 1.1, 0.9, 0.7])


def test_edge_scan_shares_its_cells_calls(monkeypatch):
    # Work guard: the benchmark's scan made 64 cell_dtn calls with one
    # find_eigenvalues per t and 23 with its t values in lockstep; it makes
    # 15 now that its twin edge levels skip isolation and the eigenfunctions
    # are read from the search's own vectors
    calls = count_calls(monkeypatch, spectral, "cell_dtn")
    edge_scan(make_dirichlet(1), DOM, [1.0, 0.5, 0.2, 0.1])
    assert len(calls) <= 20
