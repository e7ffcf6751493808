"""End-to-end acceptance suite.

Each test pins one headline capability at its contracted tolerance:
closed-form reproduction of the free-interval worked example, closed-form
spectra, independent finite-difference cross-validation, boundary-data
isotropy, the Cayley transform, the index identity for closed unitary curves,
edge states of rotated boundary conditions, unitarity of the spectral time
evolution, and the quantum-wire ring equivalence.
"""

import cmath
import math
import time

import numpy as np
import pytest

from conftest import random_hermitian
from qwire.bc import (
    CayleySingular,
    UnitaryBC,
    WireSpec,
    admissible_subspace,
    cayley_degeneracy,
    cayley_to_unitary,
    isotropy_residual,
    make_dirichlet,
    make_neumann,
    make_quasiperiodic,
    make_u2,
    make_wire,
    random_unitary,
    unitary_to_cayley,
)
from qwire.curves import UnitaryCurve, cayley_index, det_winding
from qwire.domain import Interval, QuantumDomain
from qwire.edge import edge_scan
from qwire.odesolve import free_exponential_basis
from qwire.oracle import fd_spectrum, robin_edge_groundstate
from qwire.spectral import (
    SolveOptions,
    boundary_wronskian,
    evolve,
    find_eigenvalues,
    spectral_matrix,
)

FREE_2PI = QuantumDomain([Interval(0.0, 2.0 * math.pi, "1", "0")])


def _random_u2_params(rng):
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    r = math.sqrt(float(rng.uniform(0.0, 1.0)))
    alpha = r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    beta = math.sqrt(1.0 - r * r) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return theta, alpha, beta


def test_01_free_interval_worked_example():
    """Six boundary Wronskians and the assembled spectral function match the
    free-interval closed forms."""
    start = time.monotonic()
    rng = np.random.default_rng(1)

    # (a) six Wronskian terms, 20 energies, relative 1e-9
    for lam in rng.uniform(0.011, 4.99, size=20):
        lam = float(lam)
        k = math.sqrt(2.0 * lam)
        s, c = math.sin(2.0 * math.pi * k), math.cos(2.0 * math.pi * k)
        fp = free_exponential_basis(FREE_2PI.intervals[0], lam)
        refs = {
            ("l", "r", "-", "-"): -2j * (1 + 2 * lam) * s - 4 * k * c,
            ("l", "l", "+", "-"): 4 * k,
            ("r", "r", "-", "+"): 4 * k,
            ("r", "l", "-", "+"): 2j * (1 - 2 * lam) * s,
            ("r", "l", "+", "-"): 2j * (1 - 2 * lam) * s,
            ("l", "r", "+", "+"): -2j * (1 + 2 * lam) * s + 4 * k * c,
        }
        for key, want in refs.items():
            got = boundary_wronskian(fp, *key)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (key, lam)

    # (b) assembled spectral function against the closed-form display,
    # 20 random U(2) parameter triples, relative 1e-8
    for _ in range(20):
        theta, alpha, beta = _random_u2_params(rng)
        lam = float(rng.uniform(0.011, 4.99))
        k = math.sqrt(2.0 * lam)
        s, c = math.sin(2.0 * math.pi * k), math.cos(2.0 * math.pi * k)
        U = make_u2(theta, alpha, beta)
        fp = free_exponential_basis(FREE_2PI.intervals[0], lam)
        direct = complex(np.linalg.det(spectral_matrix(U, [fp]).matrix))
        display = (
            -2j * (1 + 2 * lam) * s - 4 * k * c
            + cmath.exp(0.5j * theta) * (4j * alpha.real * (1 - 2 * lam) * s
                                         + 8j * beta.imag * k)
            + cmath.exp(1j * theta) * (-2j * (1 + 2 * lam) * s + 4 * k * c)
        )
        assert abs(direct - display) <= 1e-8 * max(1.0, abs(direct))

    assert time.monotonic() - start < 5.0


def test_02_closed_form_spectra():
    """Dirichlet, Neumann, periodic and quasi-periodic spectra on [0, 2*pi]
    reproduce the closed forms to absolute 1e-8 with correct multiplicities."""
    start = time.monotonic()
    opts = SolveOptions()

    spectrum = find_eigenvalues(make_dirichlet(1), FREE_2PI, (0.01, 4.8), opts)
    want = [k * k / 8.0 for k in range(1, 7)]
    assert np.max(np.abs(spectrum.lams[:6] - want)) <= 1e-8
    assert [e.multiplicity for e in spectrum.eigs[:6]] == [1] * 6

    spectrum = find_eigenvalues(make_neumann(1), FREE_2PI, (-0.2, 3.4), opts)
    want = [0.0] + [k * k / 8.0 for k in range(1, 6)]
    assert np.max(np.abs(spectrum.lams[:6] - want)) <= 1e-8
    assert [e.multiplicity for e in spectrum.eigs[:6]] == [1] * 6

    spectrum = find_eigenvalues(make_quasiperiodic(0.0), FREE_2PI, (-0.2, 4.8), opts)
    flat = [lam for lam, _, _ in spectrum.flat()][:6]
    assert np.max(np.abs(np.array(flat) - [0.0, 0.5, 0.5, 2.0, 2.0, 4.5])) <= 1e-8
    assert [e.multiplicity for e in spectrum.eigs[:4]] == [1, 2, 2, 2]

    for theta in (math.pi / 3.0, 1.0):
        q = theta / (2.0 * math.pi)
        want = sorted((k + q) ** 2 / 2.0 for k in range(-4, 5))[:6]
        spectrum = find_eigenvalues(make_quasiperiodic(theta), FREE_2PI,
                                    (-0.1, want[-1] + 0.3), opts)
        assert np.max(np.abs(spectrum.lams[:6] - want)) <= 1e-8
        assert [e.multiplicity for e in spectrum.eigs[:6]] == [1] * 6

    assert time.monotonic() - start < 30.0


def test_03_oracle_cross_validation():
    """10 random generic U(2) problems: the spectral solver agrees with the
    finite-difference oracle within its Richardson error estimate."""
    start = time.monotonic()
    rng = np.random.default_rng(42)

    def generic_u2():
        while True:
            U = random_unitary(2, rng)
            if cayley_degeneracy(U, -1) == 0:
                return U

    cases = [(generic_u2(), "0") for _ in range(5)]
    cases += [(generic_u2(), "x^2/2") for _ in range(5)]
    for U, pot in cases:
        dom = QuantumDomain([Interval(0.0, 2.0 * math.pi, "1", pot)])
        fd_lams, fd_est = fd_spectrum(U, dom, N=1200, k=5)
        assert np.max(fd_est) <= 1e-3
        spectrum = find_eigenvalues(
            U, dom, (float(fd_lams[0]) - 0.5, float(fd_lams[4]) + 0.3),
            SolveOptions(max_eigs=5, rel_tol=1e-9))
        flat = [lam for lam, _, _ in spectrum.flat()][:5]
        assert len(flat) == 5
        for lam_s, lam_f, est in zip(flat, fd_lams, fd_est):
            assert abs(lam_s - lam_f) <= est, pot

    assert time.monotonic() - start < 180.0


def test_04_isotropy_suite():
    """50 random boundary conditions: admissible dimension 2n, vanishing
    boundary form, eigenfunction traces inside the admissible subspace."""
    rng = np.random.default_rng(4)
    lengths = [1.0, 1.3, 0.7]
    for case in range(50):
        n = case % 3 + 1
        U = random_unitary(2 * n, rng)
        basis = admissible_subspace(U)          # raises unless dimension is 2n
        assert basis.shape == (4 * n, 2 * n)
        assert isotropy_residual(U) <= 1e-12

        dom = QuantumDomain([Interval(0.0, L, "1", "0") for L in lengths[:n]])
        spectrum = find_eigenvalues(U, dom, (0.2, 14.0),
                                    SolveOptions(max_eigs=1))
        assert spectrum.eigs, f"no eigenvalue for case {case}"
        proj = basis @ basis.conj().T
        e = spectrum.eigs[0]
        for j in range(e.multiplicity):
            v = np.concatenate([e.psi[j], e.dpsi[j]])
            assert np.linalg.norm(v - proj @ v) <= 1e-8 * np.linalg.norm(v)


def test_05_cayley_suite():
    """100 Cayley round trips, the singular point, exact degeneracy counts."""
    rng = np.random.default_rng(5)
    for trip in range(100):
        m = (trip % 3 + 1) * 2
        scale = float(rng.uniform(0.05, 1000.0 if trip % 4 == 0 else 10.0))
        A = random_hermitian(m, rng, scale)
        A2 = unitary_to_cayley(cayley_to_unitary(A)).matrix
        assert np.linalg.norm(A2 - A) <= 1e-8 * max(1.0, np.linalg.norm(A))

    with pytest.raises(CayleySingular):
        unitary_to_cayley(make_dirichlet(2))

    for m in (2, 4, 6):
        for _ in range(5):
            n_minus = int(rng.integers(0, m + 1))
            n_plus = int(rng.integers(0, m - n_minus + 1))
            rest = m - n_minus - n_plus
            phases = ([math.pi] * n_minus + [0.0] * n_plus
                      + list(rng.uniform(0.2, math.pi - 0.2, size=rest)))
            Q = random_unitary(m, rng).matrix
            U = UnitaryBC(Q @ np.diag(np.exp(1j * np.array(phases))) @ Q.conj().T)
            assert cayley_degeneracy(U, -1) == n_minus
            assert cayley_degeneracy(U, +1) == n_plus


def test_06_index_identity():
    """Signed -1 crossings equal the determinant winding on 50 constructed
    closed loops in U(2) and U(4)."""
    start = time.monotonic()
    rng = np.random.default_rng(6)
    for case in range(50):
        dim = 2 if case % 2 == 0 else 4
        ks = rng.integers(-3, 4, size=dim)
        phis = rng.uniform(0.05, 2.0 * math.pi - 0.05, size=dim)
        Q = random_unitary(dim, rng).matrix

        def f(theta, ks=ks, phis=phis, Q=Q):
            d = np.exp(1j * (ks * theta + phis))
            return Q @ np.diag(d) @ Q.conj().T

        curve = UnitaryCurve.from_function(f, samples=320)
        w = det_winding(curve)
        assert w == int(np.sum(ks))
        assert cayley_index(curve) == w
    assert time.monotonic() - start < 30.0


def test_07_edge_states():
    """Rotated Dirichlet conditions on [0, pi] develop a localized negative
    edge level matching the Robin transcendental reference."""
    start = time.monotonic()
    t_values = [1.0, 0.5, 0.2, 0.1]
    scan = edge_scan(make_dirichlet(1),
                     QuantumDomain([Interval(0.0, math.pi, "1", "0")]),
                     t_values, opts=SolveOptions())
    assert scan.all_negative
    assert scan.monotone_decreasing
    for t, lam in zip(scan.t_values, scan.lam_min):
        ref = robin_edge_groundstate(math.pi, 1.0 / math.tan(t / 2.0))
        assert abs(lam - ref) <= 1e-6 * abs(ref), t

    # boundary-collar localization grows as t shrinks
    masses = dict(zip(scan.t_values, scan.collar_mass))
    assert masses[0.5] > 0.5
    assert masses[0.2] > 0.8
    assert masses[0.1] > 0.9

    # divergence rate: lam_min * 2 tan^2(t/2) -> -1
    ratio = scan.lam_min[-1] * 2.0 * math.tan(0.05) ** 2
    assert -1.05 <= ratio <= -0.9
    assert time.monotonic() - start < 60.0


def test_08_evolution_unitarity():
    """A Gaussian packet on the periodic interval evolves with norm drift
    below 1e-10 and truncation residual below 1e-6 over 100 time points."""
    U = make_quasiperiodic(0.0)
    spectrum = find_eigenvalues(U, FREE_2PI, (-0.5, 530.0),
                                SolveOptions())
    assert sum(e.multiplicity for e in spectrum.eigs) >= 64

    xs = spectrum.eigs[0].xs
    initial = np.exp(-4.0 * (xs - math.pi) ** 2) * np.exp(2j * xs)
    times = np.linspace(0.0, 20.0, 100)
    report = evolve(U, FREE_2PI, spectrum, initial.astype(complex), times)
    assert report["norm_drift"] <= 1e-10
    assert report["truncation_residual"] <= 1e-6


def test_09_quantum_wire_ring():
    """A two-link ring glued by a wire permutation reproduces the periodic
    single interval of the total length."""
    ring_dom = QuantumDomain([Interval(0.0, math.pi, "1", "0"),
                              Interval(0.0, math.pi, "1", "0")])
    ring_bc = make_wire(WireSpec(sigma=(3, 2, 1, 0), beta=(0.0,) * 4))
    ring = find_eigenvalues(ring_bc, ring_dom, (-0.2, 4.8), SolveOptions())

    periodic = find_eigenvalues(make_quasiperiodic(0.0), FREE_2PI, (-0.2, 4.8),
                                SolveOptions())

    ring_flat = [lam for lam, _, _ in ring.flat()][:6]
    per_flat = [lam for lam, _, _ in periodic.flat()][:6]
    assert len(ring_flat) == len(per_flat) == 6
    for a, b in zip(ring_flat, per_flat):
        assert abs(a - b) <= 1e-7
