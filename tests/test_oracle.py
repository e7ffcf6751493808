"""Finite-difference oracle and Robin ground-state reference."""

import math

import numpy as np
import pytest
import scipy.optimize

from qwire import oracle
from qwire.bc import (
    CayleySingular,
    UnitaryBC,
    make_dirichlet,
    make_neumann,
    make_quasiperiodic,
    random_unitary,
    unitary_to_cayley,
)
from qwire.domain import Interval, QuantumDomain
from qwire.oracle import fd_spectrum, robin_edge_groundstate
from qwire.spectral import SolveOptions, find_eigenvalues

FREE = QuantumDomain([Interval(0.0, 2.0 * math.pi, "1", "0")])
LENGTHS = [1.0, 1.3, 0.7]
THREE = QuantumDomain([Interval(0.0, L, "1", "0") for L in LENGTHS])


def _unitary_with_phases(rng, m=6):
    """Q diag(exp(i phases)) Q^H, phases uniform in (-pi + 1, pi - 1), Q Haar."""
    phases = rng.uniform(-math.pi + 1.0, math.pi - 1.0, size=m)
    Q = random_unitary(m, rng).matrix
    return UnitaryBC((Q * np.exp(1j * phases)) @ Q.conj().T)


def _free_robin_levels(U, lengths, guesses):
    """Levels of free intervals under dpsi = A psi, A the Cayley transform of U.

    On [0, L] the Dirichlet-to-Neumann map sends the end values (psi(0), psi(L))
    to the outward derivatives (1/s) [[c, -1], [-1, c]] (psi(0), psi(L)), with
    c = cos(kL), s = sin(kL)/k, k = sqrt(2 lam) (cosh, sinh and k = sqrt(-2 lam)
    below 0).  A level is a root of the real function det(DtN(lam) - A), solved
    here to 1e-15 within 1e-6 of its guess.
    """
    n = len(lengths)
    L = np.asarray(lengths)
    eye = np.eye(2 * n)
    A = -1j * (eye - U.matrix) @ np.linalg.inv(eye + U.matrix)
    A = 0.5 * (A + A.conj().T)
    i = np.arange(n)

    def det(lam):
        k = math.sqrt(2.0 * abs(lam))
        if lam > 0.0:
            c, s = np.cos(k * L), np.sin(k * L) / k
        else:
            c, s = np.cosh(k * L), np.sinh(k * L) / k
        dtn = np.zeros((2 * n, 2 * n))
        dtn[i, i] = dtn[n + i, n + i] = c / s
        dtn[i, n + i] = dtn[n + i, i] = -1.0 / s
        return np.linalg.det(dtn - A).real

    return np.array([scipy.optimize.brentq(det, g - 1e-6, g + 1e-6, xtol=1e-15)
                     for g in guesses])


def test_dirichlet_first_eigenvalue():
    lams, est = fd_spectrum(make_dirichlet(1), FREE, N=2000, k=1)
    assert abs(lams[0] - 0.125) <= 1e-5
    assert abs(lams[0] - 0.125) <= est[0] + 1e-10


def test_neumann_spectrum_within_estimate():
    lams, est = fd_spectrum(make_neumann(1), FREE, N=800, k=4)
    want = [0.0, 0.125, 0.5, 1.125]
    for lam, w, e in zip(lams, want, est):
        assert abs(lam - w) <= max(e, 1e-8)


def test_second_order_convergence_ratio():
    # raw (unextrapolated) errors against the closed form k^2/8 must shrink
    # by about 4x when N doubles
    want = np.array([k * k / 8.0 for k in range(1, 5)])
    for N in (300, 600):
        eN, _ = fd_spectrum(make_dirichlet(1), FREE, N=N, k=4, extrapolate=False)
        e2N, _ = fd_spectrum(make_dirichlet(1), FREE, N=2 * N, k=4, extrapolate=False)
        ratio = np.abs(eN - want) / np.abs(e2N - want)
        assert np.all(ratio >= 3.5) and np.all(ratio <= 4.5)


def test_robin_boundary_against_spectral_solver():
    rng = np.random.default_rng(77)
    U = random_unitary(2, rng)
    lams, est = fd_spectrum(U, FREE, N=600, k=3)
    spectrum = find_eigenvalues(U, FREE, (float(lams[0]) - 0.4, float(lams[2]) + 0.3),
                                SolveOptions(max_eigs=3))
    flat = [lam for lam, _, _ in spectrum.flat()][:3]
    for lam_s, lam_f, e in zip(flat, lams, est):
        assert abs(lam_s - lam_f) <= e


def test_variable_metric_and_potential():
    dom = QuantumDomain([Interval(0.0, 2.0, "1 + 0.3*x", "x")])
    lams, est = fd_spectrum(make_dirichlet(1), dom, N=600, k=3)
    spectrum = find_eigenvalues(make_dirichlet(1), dom,
                                (float(lams[0]) - 0.4, float(lams[2]) + 0.3),
                                SolveOptions(max_eigs=3))
    flat = [lam for lam, _, _ in spectrum.flat()][:3]
    for lam_s, lam_f, e in zip(flat, lams, est):
        assert abs(lam_s - lam_f) <= e


def test_three_interval_robin_against_spectral_solver():
    U = _unitary_with_phases(np.random.default_rng(12))
    lams, est = fd_spectrum(U, THREE, N=400, k=5)
    spectrum = find_eigenvalues(U, THREE, (float(lams[0]) - 0.5, float(lams[4]) + 0.3),
                                SolveOptions(max_eigs=5))
    flat = [lam for lam, _, _ in spectrum.flat()][:5]
    assert len(flat) == 5
    for lam_s, lam_f, e in zip(flat, lams, est):
        assert abs(lam_s - lam_f) <= max(e, 1e-8)


def test_estimate_bounds_error_where_resolutions_agree():
    # the extrapolation step |lam_N - lam_2N| / 3 of the level near 0.5434 is
    # 1e-10 or less here, below the rounding of an eigensolver on Hs
    U = _unitary_with_phases(np.random.default_rng(4))
    lams, est = fd_spectrum(U, THREE, N=400, k=5)
    want = _free_robin_levels(U, LENGTHS, lams)
    assert abs(want[2] - 0.54339635) <= 1e-8
    err = np.abs(lams - want)
    assert np.all(err <= est)
    # the Ritz polish removes the band reduction's rounding (4e-10 here)
    assert np.all(err <= 1e-10)


def test_dirichlet_at_maximum_resolution():
    lams, est = fd_spectrum(make_dirichlet(1), FREE, N=4000, k=3)
    want = np.array([k * k / 8.0 for k in range(1, 4)])
    assert np.all(np.abs(lams - want) <= np.minimum(est, 1e-10))


def test_eigenvalues_are_real_and_sorted():
    lams, _ = fd_spectrum(make_neumann(1), FREE, N=400, k=6)
    assert np.all(np.isreal(lams))
    assert np.all(np.diff(lams) >= 0)


def test_degenerate_boundary_rejected():
    # quasiperiodic matrices carry eigenvalue -1 but are not exactly -I
    with pytest.raises(CayleySingular):
        fd_spectrum(make_quasiperiodic(0.3), FREE, N=300, k=2)


def test_ritz_shift_on_an_eigenvalue_raises():
    # a shift exactly on an eigenvalue of a diagonal Hs leaves a zero pivot
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        oracle._ritz(np.array([[1.0, 2.0, 3.0]]), np.array([2.0]), (None,) * 5, None)


def test_grid_bounds():
    with pytest.raises(ValueError):
        fd_spectrum(make_dirichlet(1), FREE, N=100, k=1)
    with pytest.raises(ValueError):
        fd_spectrum(make_dirichlet(1), FREE, N=5000, k=1)


def test_k_must_fit_the_matrix():
    # N = 200 has 199 interior Dirichlet nodes and 201 nodes under Neumann
    d01 = QuantumDomain([Interval(0.0, 1.0, "1", "0")])
    with pytest.raises(ValueError, match=r"k = 200 must lie in \[1, 199\]"):
        fd_spectrum(make_dirichlet(1), d01, N=200, k=200)
    with pytest.raises(ValueError, match=r"k = 0 must lie in \[1, 199\]"):
        fd_spectrum(make_dirichlet(1), d01, N=200, k=0)
    with pytest.raises(ValueError, match=r"k = 202 must lie in \[1, 201\]"):
        fd_spectrum(make_neumann(1), d01, N=200, k=202)
    lams, _ = fd_spectrum(make_dirichlet(1), d01, N=200, k=199, extrapolate=False)
    assert len(lams) == 199


def _dense_hs(U, domain, N):
    """The dense Hs of fd_spectrum at resolution N, its (disc, A), from _band."""
    n = domain.n
    dirichlet = np.allclose(U.matrix, -np.eye(2 * n))
    A = None if dirichlet else unitary_to_cayley(U).matrix
    disc = oracle._discretize(domain, N)
    band = oracle._band(disc, A, 2 * n)
    if dirichlet:
        band = band[:, 2 * n:]
    dim = band.shape[1]
    H = np.zeros((dim, dim), band.dtype)
    for i in range(band.shape[0]):
        H[np.arange(i, dim), np.arange(dim - i)] = band[i, :dim - i]
    return np.tril(H) + np.tril(H, -1).conj().T, disc, A


PAIR = QuantumDomain([Interval(0.0, math.pi, "1", "0"),
                      Interval(0.0, math.pi * (1.0 + 1e-7), "1", "0")])


@pytest.mark.parametrize("U, domain, N, k", [
    (make_dirichlet(1), FREE, 300, 6),
    (make_neumann(1), FREE, 300, 6),
    (make_dirichlet(1), QuantumDomain([Interval(0.0, 2.0, "1", "x^2/2 - x")]), 250, 5),
    (random_unitary(2, np.random.default_rng(1)),
     QuantumDomain([Interval(0.0, 2.0, "1", "x")]), 300, 5),
    (random_unitary(4, np.random.default_rng(2)),
     QuantumDomain([Interval(0.0, 1.0, "1", "0"), Interval(0.0, 1.7, "1", "x")]), 200, 6),
    (random_unitary(6, np.random.default_rng(3)), THREE, 200, 6),
    # a pair 1e-7 apart: k = 1 and k = 3 split each pair between kept and left out
    (make_dirichlet(2), PAIR, 300, 1),
    (make_dirichlet(2), PAIR, 300, 3),
])
def test_lowest_levels_match_dense_eigensolver(U, domain, N, k):
    H, disc, A = _dense_hs(U, domain, N)
    want = np.linalg.eigvalsh(H)
    lams, est = fd_spectrum(U, domain, N=N, k=k, extrapolate=False)
    assert est is None
    assert np.all(np.abs(lams - want[:k]) <= 1e-10 * np.maximum(1.0, np.abs(want[:k])))
    # the count is the number of dense eigenvalues below each lam
    lams = np.random.default_rng(k).uniform(want[0] - 1.0, want[20] + 1.0, 40)
    assert np.array_equal(oracle._count(disc, A, lams), np.searchsorted(want, lams))


def test_robin_edge_groundstate_defining_equation():
    for L, kappa in [(math.pi, 1.0), (math.pi, 5.0), (2.0, 3.0), (4.0, 0.8)]:
        lam = robin_edge_groundstate(L, kappa)
        assert lam < 0.0
        c = math.sqrt(-2.0 * lam)
        assert abs(c * math.tanh(c * L / 2.0) - kappa) <= 1e-10


def test_robin_edge_groundstate_saturates_for_large_kappa():
    kappa = 50.0
    lam = robin_edge_groundstate(math.pi, kappa)
    c = math.sqrt(-2.0 * lam)
    assert abs(c / kappa - 1.0) <= 1e-10


def test_robin_edge_groundstate_precondition():
    with pytest.raises(ValueError):
        robin_edge_groundstate(1.0, 1.0)  # kappa * L <= 2
